// Package apppkg models mobile application packages as file trees: the APK
// contents Apktool would produce for Android, and the IPA payload
// (Info.plist, entitlements, main binary, frameworks) for iOS. It owns the
// concrete on-disk formats — Android manifests, Network Security
// Configuration XML, iOS property lists — providing both the writers the
// world generator uses and the parsers the static-analysis pipeline uses,
// so generator and analyzer meet only at real bytes.
//
// iOS packages are encrypted the way App Store binaries are (per-app key,
// executable pages only): static analysis must first obtain a decrypted
// payload via a jailbroken device, mirroring the Flexdecrypt/Frida-iOS-Dump
// step of the paper (§4.1.2, Appendix A).
package apppkg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
)

// File is one entry in a package.
type File struct {
	Path string
	Data []byte
	// Executable marks binary code files; on iOS only these are encrypted.
	Executable bool
}

// Package is an application package's file tree.
type Package struct {
	AppID string
	// Encrypted is set for store-downloaded iOS packages; executable file
	// contents are ciphertext until DecryptIOS is applied.
	Encrypted bool

	files map[string]*File
	order []string // deterministic iteration order
}

// New returns an empty package for the app.
func New(appID string) *Package {
	return &Package{AppID: appID, files: make(map[string]*File)}
}

// Add inserts or replaces a file.
func (p *Package) Add(path string, data []byte) {
	p.add(&File{Path: path, Data: data})
}

// AddExecutable inserts a binary code file.
func (p *Package) AddExecutable(path string, data []byte) {
	p.add(&File{Path: path, Data: data, Executable: true})
}

func (p *Package) add(f *File) {
	if _, exists := p.files[f.Path]; !exists {
		p.order = append(p.order, f.Path)
	}
	p.files[f.Path] = f
}

// Get returns the file at path, or nil.
func (p *Package) Get(path string) *File {
	return p.files[path]
}

// Files returns all files in insertion order.
func (p *Package) Files() []*File {
	out := make([]*File, 0, len(p.order))
	for _, path := range p.order {
		out = append(out, p.files[path])
	}
	return out
}

// Len returns the number of files.
func (p *Package) Len() int { return len(p.files) }

// Clone deep-copies the package.
func (p *Package) Clone() *Package {
	cp := New(p.AppID)
	cp.Encrypted = p.Encrypted
	for _, f := range p.Files() {
		data := make([]byte, len(f.Data))
		copy(data, f.Data)
		cp.add(&File{Path: f.Path, Data: data, Executable: f.Executable})
	}
	return cp
}

// --- iOS FairPlay-style encryption ----------------------------------------

// iosKeystream derives the per-app XOR keystream block for a counter.
func iosKeystream(appID string, counter uint64, out []byte) {
	var block [32]byte
	var n int
	for n < len(out) {
		h := sha256.New()
		h.Write([]byte("fairplay:" + appID))
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], counter)
		h.Write(c[:])
		h.Sum(block[:0])
		n += copy(out[n:], block[:])
		counter++
	}
}

func xorExecutables(p *Package) {
	for _, f := range p.Files() {
		if !f.Executable {
			continue
		}
		ks := make([]byte, len(f.Data))
		iosKeystream(p.AppID+"/"+f.Path, 0, ks)
		for i := range f.Data {
			f.Data[i] ^= ks[i]
		}
	}
}

// EncryptIOS converts a plaintext package into its store-downloaded form:
// executable files become ciphertext. Non-executable resources (plists,
// entitlements, loose assets) remain readable, as in real IPAs.
func (p *Package) EncryptIOS() {
	if p.Encrypted {
		return
	}
	xorExecutables(p)
	p.Encrypted = true
}

// DecryptIOS reverses EncryptIOS. In the study this capability requires a
// jailbroken device (the keys live in hardware); internal/device gates
// access accordingly.
func (p *Package) DecryptIOS() {
	if !p.Encrypted {
		return
	}
	xorExecutables(p) // XOR keystream is an involution
	p.Encrypted = false
}

// Decrypted returns p's decrypted form without modifying p: executable
// files are decrypted into fresh buffers and every other file is shared.
// An unencrypted package is returned as is. Unlike DecryptIOS it never
// writes to p, so one store package can be dumped by any number of
// concurrent readers, any number of times, with the same result.
func (p *Package) Decrypted() *Package {
	if !p.Encrypted {
		return p
	}
	cp := New(p.AppID)
	for _, path := range p.order {
		f := p.files[path]
		if f.Executable {
			data := make([]byte, len(f.Data))
			copy(data, f.Data)
			f = &File{Path: f.Path, Data: data, Executable: true}
		}
		cp.add(f)
	}
	xorExecutables(cp)
	return cp
}

// --- Android manifest ------------------------------------------------------

type xmlManifest struct {
	XMLName     xml.Name       `xml:"manifest"`
	Package     string         `xml:"package,attr"`
	Application xmlApplication `xml:"application"`
}

type xmlApplication struct {
	NetworkSecurityConfig string `xml:"networkSecurityConfig,attr"`
	Label                 string `xml:"label,attr"`
}

// BuildManifest renders an AndroidManifest.xml. nscRef is the
// networkSecurityConfig resource reference ("@xml/network_security_config")
// or "" when the app declares none.
func BuildManifest(appID, label, nscRef string) []byte {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	fmt.Fprintf(&b, `<manifest xmlns:android="http://schemas.android.com/apk/res/android" package=%q>`+"\n", appID)
	if nscRef != "" {
		fmt.Fprintf(&b, `  <application android:label=%q android:networkSecurityConfig=%q>`+"\n", label, nscRef)
	} else {
		fmt.Fprintf(&b, `  <application android:label=%q>`+"\n", label)
	}
	b.WriteString("    <activity android:name=\".MainActivity\"/>\n  </application>\n</manifest>\n")
	return b.Bytes()
}

// ParseManifest extracts the package id and NSC resource reference from an
// AndroidManifest.xml. Attribute namespaces are tolerated.
func ParseManifest(data []byte) (appID, nscRef string, err error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, terr := dec.Token()
		if terr != nil {
			break
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "manifest":
			for _, a := range se.Attr {
				if a.Name.Local == "package" {
					appID = a.Value
				}
			}
		case "application":
			for _, a := range se.Attr {
				if a.Name.Local == "networkSecurityConfig" {
					nscRef = a.Value
				}
			}
		}
	}
	if appID == "" {
		return "", "", fmt.Errorf("apppkg: no package attribute in manifest")
	}
	return appID, nscRef, nil
}

// --- Network Security Configuration ----------------------------------------

// NSCPin is one <pin> entry.
type NSCPin struct {
	Digest string // "SHA-256" or "SHA-1"
	Value  string // base64 SPKI hash
}

// NSCDomain is one <domain-config> block.
type NSCDomain struct {
	Domain            string
	IncludeSubdomains bool
	Pins              []NSCPin
	PinSetExpiration  string
	// OverridePins mirrors the <certificates overridePins="true"/>
	// misconfiguration Possemato et al. found: trust anchors that bypass
	// the pin set, defeating its purpose.
	OverridePins bool
	// TrustAnchorSrc names a custom CA resource ("@raw/my_ca") when the
	// config installs its own anchor.
	TrustAnchorSrc string
}

// NSC is a parsed (or to-be-rendered) network security configuration.
type NSC struct {
	Domains []NSCDomain
}

// HasPins reports whether any domain block carries a pin-set.
func (n *NSC) HasPins() bool {
	for _, d := range n.Domains {
		if len(d.Pins) > 0 {
			return true
		}
	}
	return false
}

// BuildNSC renders network_security_config.xml.
func BuildNSC(cfg *NSC) []byte {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	b.WriteString("<network-security-config>\n")
	for _, d := range cfg.Domains {
		b.WriteString("  <domain-config>\n")
		fmt.Fprintf(&b, "    <domain includeSubdomains=%q>%s</domain>\n",
			boolStr(d.IncludeSubdomains), xmlEscape(d.Domain))
		if len(d.Pins) > 0 {
			if d.PinSetExpiration != "" {
				fmt.Fprintf(&b, "    <pin-set expiration=%q>\n", d.PinSetExpiration)
			} else {
				b.WriteString("    <pin-set>\n")
			}
			for _, p := range d.Pins {
				fmt.Fprintf(&b, "      <pin digest=%q>%s</pin>\n", p.Digest, p.Value)
			}
			b.WriteString("    </pin-set>\n")
		}
		if d.TrustAnchorSrc != "" || d.OverridePins {
			b.WriteString("    <trust-anchors>\n")
			src := d.TrustAnchorSrc
			if src == "" {
				src = "system"
			}
			if d.OverridePins {
				fmt.Fprintf(&b, "      <certificates src=%q overridePins=\"true\"/>\n", src)
			} else {
				fmt.Fprintf(&b, "      <certificates src=%q/>\n", src)
			}
			b.WriteString("    </trust-anchors>\n")
		}
		b.WriteString("  </domain-config>\n")
	}
	b.WriteString("</network-security-config>\n")
	return b.Bytes()
}

func boolStr(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

func xmlEscape(s string) string {
	var b bytes.Buffer
	xml.EscapeText(&b, []byte(s))
	return b.String()
}

type xmlNSC struct {
	XMLName xml.Name       `xml:"network-security-config"`
	Domains []xmlNSCDomain `xml:"domain-config"`
}

type xmlNSCDomain struct {
	Domain struct {
		Value             string `xml:",chardata"`
		IncludeSubdomains string `xml:"includeSubdomains,attr"`
	} `xml:"domain"`
	PinSet *struct {
		Expiration string `xml:"expiration,attr"`
		Pins       []struct {
			Digest string `xml:"digest,attr"`
			Value  string `xml:",chardata"`
		} `xml:"pin"`
	} `xml:"pin-set"`
	TrustAnchors *struct {
		Certificates []struct {
			Src          string `xml:"src,attr"`
			OverridePins string `xml:"overridePins,attr"`
		} `xml:"certificates"`
	} `xml:"trust-anchors"`
}

// ParseNSC parses a network security configuration document.
func ParseNSC(data []byte) (*NSC, error) {
	var doc xmlNSC
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("apppkg: parse NSC: %w", err)
	}
	out := &NSC{}
	for _, d := range doc.Domains {
		nd := NSCDomain{
			Domain:            strings.TrimSpace(d.Domain.Value),
			IncludeSubdomains: d.Domain.IncludeSubdomains == "true",
		}
		if d.PinSet != nil {
			nd.PinSetExpiration = d.PinSet.Expiration
			for _, p := range d.PinSet.Pins {
				nd.Pins = append(nd.Pins, NSCPin{
					Digest: p.Digest,
					Value:  strings.TrimSpace(p.Value),
				})
			}
		}
		if d.TrustAnchors != nil {
			for _, c := range d.TrustAnchors.Certificates {
				if c.OverridePins == "true" {
					nd.OverridePins = true
				}
				if strings.HasPrefix(c.Src, "@") {
					nd.TrustAnchorSrc = c.Src
				}
			}
		}
		out.Domains = append(out.Domains, nd)
	}
	return out, nil
}

// --- iOS property lists -----------------------------------------------------

// BuildInfoPlist renders a minimal Info.plist.
func BuildInfoPlist(bundleID, name string) []byte {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	b.WriteString("<plist version=\"1.0\">\n<dict>\n")
	fmt.Fprintf(&b, "  <key>CFBundleIdentifier</key><string>%s</string>\n", xmlEscape(bundleID))
	fmt.Fprintf(&b, "  <key>CFBundleName</key><string>%s</string>\n", xmlEscape(name))
	b.WriteString("  <key>CFBundleShortVersionString</key><string>1.0</string>\n")
	b.WriteString("</dict>\n</plist>\n")
	return b.Bytes()
}

// BuildEntitlements renders an entitlements plist carrying associated
// domains ("applinks:example.com" entries), the source of the iOS
// background verification traffic of §4.5.
func BuildEntitlements(bundleID string, associatedDomains []string) []byte {
	var b bytes.Buffer
	b.WriteString(xml.Header)
	b.WriteString("<plist version=\"1.0\">\n<dict>\n")
	fmt.Fprintf(&b, "  <key>application-identifier</key><string>%s</string>\n", xmlEscape(bundleID))
	if len(associatedDomains) > 0 {
		b.WriteString("  <key>com.apple.developer.associated-domains</key>\n  <array>\n")
		for _, d := range associatedDomains {
			fmt.Fprintf(&b, "    <string>applinks:%s</string>\n", xmlEscape(d))
		}
		b.WriteString("  </array>\n")
	}
	b.WriteString("</dict>\n</plist>\n")
	return b.Bytes()
}

// ParseEntitlementsDomains extracts the associated domains (hostnames,
// "applinks:" prefix stripped) from an entitlements plist.
func ParseEntitlementsDomains(data []byte) ([]string, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var domains []string
	inArray := false
	keyWasAssociated := false
	var lastText string
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "array":
				if keyWasAssociated {
					inArray = true
				}
			}
			lastText = ""
		case xml.CharData:
			lastText += string(t)
		case xml.EndElement:
			switch t.Name.Local {
			case "key":
				keyWasAssociated = strings.TrimSpace(lastText) == "com.apple.developer.associated-domains"
			case "string":
				if inArray {
					v := strings.TrimSpace(lastText)
					v = strings.TrimPrefix(v, "applinks:")
					if v != "" {
						domains = append(domains, v)
					}
				}
			case "array":
				if inArray {
					inArray = false
					keyWasAssociated = false
				}
			}
			lastText = ""
		}
	}
	sort.Strings(domains)
	return domains, nil
}
