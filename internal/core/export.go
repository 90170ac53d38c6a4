package core

// export.go serializes a study into the shareable dataset the paper
// releases alongside its code (github.com/NEU-SNS/app-tls-pinning): per-app
// detection verdicts, pinned destinations with their infrastructure
// classification, and the study metadata needed to reproduce the run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"pinscope/internal/atomicio"
	"pinscope/internal/pii"
	"pinscope/internal/rootprogram"
	"pinscope/internal/worldgen"
)

// Dataset load failures fall into two operationally distinct classes:
// corruption (truncated file, checksum mismatch, undecodable JSON, no apps)
// means the artifact is damaged and should be re-exported, while a version
// mismatch means the reader is older than the writer and needs an upgrade.
// Consumers (pinserve reload, pinscoped) classify via errors.Is.
var (
	// ErrDatasetCorrupt marks a truncated or corrupt snapshot.
	ErrDatasetCorrupt = errors.New("truncated or corrupt snapshot")
	// ErrDatasetVersion marks a snapshot written by a newer format version.
	ErrDatasetVersion = errors.New("snapshot version mismatch")
)

// DatasetVersion is the current export format version. WriteJSON stamps it;
// ReadJSON accepts any version up to it. Exports written before the field
// existed decode as version 0 and stay loadable. Version 2 added the
// root-program time axis: meta/app release tags and per-probe root
// fingerprints (all omitempty, so version-1 snapshots still load).
const DatasetVersion = 2

// DatasetMeta records the run's seed, dataset sizes and capture window.
// It does not record the store sizes, so it regenerates the world only
// together with the scale it ran at (worldgen.Derive fills the rest).
type DatasetMeta struct {
	Seed        int64   `json:"seed"`
	CommonSize  int     `json:"common_size"`
	PopularSize int     `json:"popular_size"`
	RandomSize  int     `json:"random_size"`
	Window      float64 `json:"capture_window_s"`
	// Release is the root-program timeline point the run measured "as of"
	// (empty for snapshot runs). pinserve treats it as the snapshot's
	// lineage tag.
	Release string `json:"release,omitempty"`
}

// ExportedDataset is the JSON shape of a released study.
type ExportedDataset struct {
	// Version is the export format version (see DatasetVersion).
	Version int `json:"version"`

	Meta DatasetMeta `json:"meta"`

	Apps         []ExportedApp   `json:"apps"`
	Destinations []ExportedProbe `json:"pinned_destinations"`
}

// exportMeta derives the export metadata from a run configuration.
func exportMeta(cfg Config) DatasetMeta {
	return DatasetMeta{
		Seed:        cfg.Params.Seed,
		CommonSize:  cfg.Params.CommonSize,
		PopularSize: cfg.Params.PopularSize,
		RandomSize:  cfg.Params.RandomSize,
		Window:      cfg.Window,
		Release:     cfg.Release,
	}
}

// ExportedApp is one app's verdicts.
type ExportedApp struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	Developer string   `json:"developer"`
	Platform  string   `json:"platform"`
	Category  string   `json:"category"`
	Datasets  []string `json:"datasets"`
	// Release is the root-program release the app shipped against.
	Release string `json:"release,omitempty"`

	PinsDynamic    bool     `json:"pins_dynamic"`
	PinnedDomains  []string `json:"pinned_domains,omitempty"`
	StaticMaterial bool     `json:"static_cert_material"`
	NSCPinSet      bool     `json:"nsc_pin_set"`
	StaticCerts    int      `json:"static_certs"`
	StaticPins     int      `json:"static_pins"`
	// PinSPKIHashes are the canonical keys ("sha256:<hex>") of the distinct
	// pins found in the package — the reverse-lookup handle a pinning
	// intelligence service needs to answer "who ships this pin".
	PinSPKIHashes []string `json:"pin_spki_hashes,omitempty"`

	WeakCipherAny    bool `json:"weak_cipher_any_conn"`
	WeakCipherPinned bool `json:"weak_cipher_pinned_conn"`

	CircumventedDomains []string `json:"circumvented_domains,omitempty"`
	PIIKindsObserved    []string `json:"pii_kinds_observed,omitempty"`
}

// ExportedProbe is one pinned destination's classification (Table 6 data).
type ExportedProbe struct {
	Host        string `json:"host"`
	DefaultPKI  bool   `json:"default_pki"`
	CustomPKI   bool   `json:"custom_pki"`
	SelfSigned  bool   `json:"self_signed"`
	Unavailable bool   `json:"unavailable"`
	LeafCN      string `json:"leaf_cn,omitempty"`
	ChainLen    int    `json:"chain_len,omitempty"`
	// RootFP is the SPKI SHA-256 fingerprint of the chain's trust anchor
	// (rootprogram.Fingerprint) — the join key for distrust-impact
	// queries: distrusting root X breaks the destinations whose RootFP
	// matches. SPKI-based, so it is stable across same-seed rebuilds.
	RootFP string `json:"root_fp,omitempty"`
}

// datasetMembership indexes dataset membership by result key. It is an
// index over listings, not results: small enough to hold in memory even
// when the results themselves are streamed.
func datasetMembership(w *worldgen.World) map[string][]string {
	membership := map[string][]string{}
	for _, e := range datasetList(w) {
		for _, l := range e.DS.Listings {
			key := string(l.Platform) + "/" + l.ID
			membership[key] = append(membership[key], e.Cell.Dataset)
		}
	}
	return membership
}

// exportApp renders one result as its export record. datasets is the
// app's dataset membership (from datasetMembership).
func exportApp(r *AppResult, datasets []string) ExportedApp {
	ea := ExportedApp{
		ID:        r.App.ID,
		Name:      r.App.Name,
		Developer: r.App.Developer,
		Platform:  string(r.App.Platform),
		Category:  r.App.Category,
		Datasets:  datasets,
		Release:   r.App.Release,

		PinsDynamic:      r.Pinned(),
		PinnedDomains:    r.Dyn.PinnedDests(),
		WeakCipherAny:    r.WeakAnyConn,
		WeakCipherPinned: r.WeakPinnedConn,
	}
	if r.Static != nil {
		ea.StaticMaterial = r.Static.HasCertMaterial()
		ea.NSCPinSet = r.Static.NSCHasPins
		ea.StaticCerts = len(r.Static.Certs)
		ea.StaticPins = len(r.Static.Pins)
		for _, p := range r.Static.UniquePins() {
			ea.PinSPKIHashes = append(ea.PinSPKIHashes, p.Key())
		}
		sort.Strings(ea.PinSPKIHashes)
	}
	for d, ok := range r.CircumventedDests {
		if ok {
			ea.CircumventedDomains = append(ea.CircumventedDomains, d)
		}
	}
	sort.Strings(ea.CircumventedDomains)
	kinds := map[pii.Kind]bool{}
	for _, m := range r.DestPII {
		for kind := range m {
			kinds[kind] = true
		}
	}
	for _, kind := range pii.AllKinds {
		if kinds[kind] {
			ea.PIIKindsObserved = append(ea.PIIKindsObserved, string(kind))
		}
	}
	return ea
}

// exportProbe renders one destination probe as its export record.
func exportProbe(p *DestProbe) ExportedProbe {
	ep := ExportedProbe{
		Host:       p.Dest,
		DefaultPKI: p.DefaultPKI, CustomPKI: p.CustomPKI,
		SelfSigned: p.SelfSigned, Unavailable: p.Unavailable,
	}
	if p.Chain != nil {
		ep.LeafCN = p.Chain.Leaf().Subject.CommonName
		ep.ChainLen = len(p.Chain)
		ep.RootFP = rootprogram.Fingerprint(p.Chain[len(p.Chain)-1])
	}
	return ep
}

// Export builds the dataset structure.
func (s *Study) Export() *ExportedDataset {
	out := &ExportedDataset{Version: DatasetVersion, Meta: exportMeta(s.Cfg)}

	membership := datasetMembership(s.World)
	keys := make([]string, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Apps = append(out.Apps, exportApp(s.results[k], membership[k]))
	}

	dests := make([]string, 0, len(s.Probes))
	for d := range s.Probes {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	for _, d := range dests {
		out.Destinations = append(out.Destinations, exportProbe(s.Probes[d]))
	}
	return out
}

// WriteJSON writes the dataset as indented JSON.
func (s *Study) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Export())
}

// StreamExporter emits an ExportedDataset byte-identically to WriteJSON
// without ever materializing the dataset: the header is written up front,
// each app record is encoded and flushed as it arrives, and the probe
// tail closes the document. The streaming shard merge feeds it one
// journal frame at a time — this is what keeps the merge's peak memory
// bounded by a single record, not the dataset.
//
// The byte-identity contract (asserted by tests against WriteJSON) pins
// the exact framing encoding/json uses: two-space indentation, one
// element per MarshalIndent call with the element's nesting as its
// prefix, null for empty slices, and the encoder's trailing newline.
type StreamExporter struct {
	w    io.Writer
	apps int
	err  error
}

// NewStreamExporter writes the document head (version and meta) and
// leaves the exporter positioned at the apps array.
func NewStreamExporter(w io.Writer, meta DatasetMeta) (*StreamExporter, error) {
	head := struct {
		Version int         `json:"version"`
		Meta    DatasetMeta `json:"meta"`
	}{DatasetVersion, meta}
	b, err := json.MarshalIndent(head, "", "  ")
	if err != nil {
		return nil, err
	}
	// Reopen the marshaled object: drop its closing "\n}" and continue
	// with the apps field where the encoder would have put it.
	b = append(b[:len(b)-2], []byte(",\n  \"apps\": ")...)
	e := &StreamExporter{w: w}
	e.write(b)
	return e, e.err
}

func (e *StreamExporter) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

// App appends one app record. Records must arrive in export order (keys
// ascending); the exporter frames them without buffering.
func (e *StreamExporter) App(ea *ExportedApp) error {
	if e.apps == 0 {
		e.write([]byte("[\n    "))
	} else {
		e.write([]byte(",\n    "))
	}
	b, err := json.MarshalIndent(ea, "    ", "  ")
	if err != nil {
		return err
	}
	e.write(b)
	e.apps++
	return e.err
}

// Finish writes the pinned-destination tail and closes the document.
func (e *StreamExporter) Finish(probes []ExportedProbe) error {
	if e.apps == 0 {
		e.write([]byte("null")) // json renders a nil slice as null
	} else {
		e.write([]byte("\n  ]"))
	}
	e.write([]byte(",\n  \"pinned_destinations\": "))
	if len(probes) == 0 {
		e.write([]byte("null"))
	} else {
		e.write([]byte("[\n    "))
		for i := range probes {
			if i > 0 {
				e.write([]byte(",\n    "))
			}
			b, err := json.MarshalIndent(&probes[i], "    ", "  ")
			if err != nil {
				return err
			}
			e.write(b)
		}
		e.write([]byte("\n  ]"))
	}
	e.write([]byte("\n}\n")) // Encode's trailing newline
	return e.err
}

// ReadJSON is the strict inverse of WriteJSON: it rejects unknown fields
// and future format versions, so a snapshot consumer fails loudly on a
// malformed or newer-format file instead of silently serving partial data.
func ReadJSON(r io.Reader) (*ExportedDataset, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ds ExportedDataset
	if err := dec.Decode(&ds); err != nil {
		return nil, fmt.Errorf("core: decode dataset: %w: %w", ErrDatasetCorrupt, err)
	}
	if ds.Version > DatasetVersion {
		return nil, fmt.Errorf("core: %w: dataset format version %d is newer than supported %d",
			ErrDatasetVersion, ds.Version, DatasetVersion)
	}
	if len(ds.Apps) == 0 {
		return nil, fmt.Errorf("core: %w: dataset contains no apps", ErrDatasetCorrupt)
	}
	return &ds, nil
}

// LoadDataset parses a previously exported dataset.
func LoadDataset(r io.Reader) (*ExportedDataset, error) {
	return ReadJSON(r)
}

// LoadExportedDataset reads one exported snapshot file. A `.crc` sidecar
// (written by atomicio.WithChecksum, as `pinstudy -export` does) is
// verified first, so bit rot surfaces as ErrDatasetCorrupt before any byte
// is parsed; snapshots without a sidecar load as before.
func LoadExportedDataset(path string) (*ExportedDataset, error) {
	if _, err := atomicio.VerifyFile(path); err != nil {
		return nil, fmt.Errorf("%s: %w: %w", path, ErrDatasetCorrupt, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}
