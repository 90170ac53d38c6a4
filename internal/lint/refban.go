package lint

// refban.go holds the reference-ban analyzers: each flags every use of an
// object it bans — a function, a constant, or a whole package — outside
// the package that owns the contract (Config.Owners). detrandonly,
// atomicwrite and pkiissuance are rows of refBans; journaldiscipline's
// writer rule runs the same scan over its own ban tables.
//
//   - detrandonly is the reproducibility bedrock: the paper's claim that
//     the pipelines re-discover ground truth from generated artifacts
//     only holds if the same seed always generates the same world, so no
//     package may read ambient entropy or the wall clock — every random
//     or temporal decision flows through internal/detrand or is injected
//     by the caller (like pki.StudyEpoch). Serving and CLI packages are
//     the exception: a package with a Config.AllowedWallClock entry may
//     read the clock for operational telemetry inside the functions the
//     entry lists.
//   - atomicwrite guards the crash-only artifact contract: every file the
//     study writes must reach disk through internal/atomicio (temp file,
//     fsync, rename). A bare os.Create or os.WriteFile writes in place and
//     reopens the torn-artifact window atomicio exists to close.
//   - pkiissuance guards the crypto plane's ownership of key material: a
//     bare ecdsa.GenerateKey outside internal/pki mints a key the plane
//     can neither reproduce from the seed nor intern.
//
// A deliberate exception carries a //pinlint:allow directive with its
// justification.

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// banTable maps {package path, object name} to why a use is banned. An
// empty name bans every object of the package.
type banTable map[[2]string]string

// refBan is one reference-ban analyzer.
type refBan struct {
	doc  string
	bans banTable
	// format renders a finding: %[1]s is the object as "path.Name",
	// %[2]s the ban's reason, %[3]s the package's tier ("a simulation",
	// or "a checked serving/CLI" when it has an allowlist entry).
	format string
	// wallClock permits the banned uses inside the functions
	// Config.AllowedWallClock lists for the package.
	wallClock bool
}

// refBans is the reference-ban table, keyed by analyzer name.
var refBans = map[string]refBan{
	"detrandonly": {
		doc: "flags ambient entropy and wall-clock reads outside the allowlisted serving/CLI functions; " +
			"all randomness and time must flow through internal/detrand or be injected",
		bans: banTable{
			{"math/rand", ""}:    "use a detrand.Source instead",
			{"math/rand/v2", ""}: "use a detrand.Source instead",
			{"crypto/rand", ""}:  "derive bytes from a detrand.Source instead",
			{"time", "Now"}:      "reads the wall clock",
			{"time", "Since"}:    "reads the wall clock (time.Since calls time.Now)",
			{"time", "Until"}:    "reads the wall clock (time.Until calls time.Now)",
			{"os", "Getpid"}:     "process-ambient entropy",
			{"os", "Getppid"}:    "process-ambient entropy",
			{"os", "Hostname"}:   "host-ambient entropy",
			{"os", "Environ"}:    "host-ambient state",
		},
		format:    "%[1]s in %[3]s package: %[2]s; route it through internal/detrand, inject it, or add it to the pinlint config table",
		wallClock: true,
	},
	"atomicwrite": {
		doc: "flags bare os.Create/os.WriteFile outside internal/atomicio; " +
			"route writes through internal/atomicio (temp file + fsync + rename)",
		bans: banTable{
			{"os", "Create"}:    "truncates the destination in place; a crash mid-write leaves a torn artifact",
			{"os", "WriteFile"}: "writes the destination in place without fsync or rename",
		},
		format: "%[1]s %[2]s; write it through internal/atomicio (Create/WriteFile commit atomically)",
	},
	"pkiissuance": {
		doc: "flags crypto/ecdsa.GenerateKey outside internal/pki; " +
			"all simulation key material must be issued by the pki layer",
		bans: banTable{
			{"crypto/ecdsa", "GenerateKey"}: "mints key material outside internal/pki",
		},
		format: "%[1]s %[2]s; issue keys through the pki layer so the crypto plane can intern and reproduce them",
	},
}

// newRefBan builds the analyzer of the refBans row called name over cfg.
func newRefBan(cfg *Config, name string) *Analyzer {
	r := refBans[name]
	a := &Analyzer{Name: name, Doc: r.doc}
	a.Run = func(pass *Pass) error {
		var allowed map[string][]string
		if r.wallClock {
			allowed = cfg.AllowedWallClock
		}
		banScan(pass, cfg, r.bans, r.format, allowed)
		return nil
	}
	return a
}

// NewDetrandOnly builds the detrandonly analyzer over cfg.
func NewDetrandOnly(cfg *Config) *Analyzer { return newRefBan(cfg, "detrandonly") }

// NewAtomicWrite builds the atomicwrite analyzer over cfg.
func NewAtomicWrite(cfg *Config) *Analyzer { return newRefBan(cfg, "atomicwrite") }

// NewPKIIssuance builds the pkiissuance analyzer over cfg.
func NewPKIIssuance(cfg *Config) *Analyzer { return newRefBan(cfg, "pkiissuance") }

// banScan reports every identifier in pass that uses an object bans names,
// unless pass's package owns the analyzer or allowed lists the enclosing
// function for the package. format renders the finding (see refBan).
func banScan(pass *Pass, cfg *Config, bans banTable, format string, allowed map[string][]string) {
	if pass.owns(cfg) {
		return
	}
	fns, checked := allowed[pass.PkgPath]
	tier := "a simulation"
	if checked {
		tier = "a checked serving/CLI"
	}
	// Info.Uses holds every identifier use in the package: ranging over
	// it is far cheaper than walking the syntax trees for identifiers.
	type hit struct {
		id  *ast.Ident
		obj types.Object
		why string
	}
	var hits []hit
	for id, obj := range pass.Info.Uses {
		if why, banned := bannedUse(bans, obj); banned {
			hits = append(hits, hit{id, obj, why})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].id.Pos() < hits[j].id.Pos() })
	for _, h := range hits {
		if fd := enclosingFunc(pass.Files, h.id.Pos()); fd != nil && slices.Contains(fns, funcDisplayName(fd)) {
			continue
		}
		pass.Reportf(h.id.Pos(), format, h.obj.Pkg().Path()+"."+h.obj.Name(), h.why, tier)
	}
}

// bannedUse looks obj up in bans, by name and then by whole package.
func bannedUse(bans banTable, obj types.Object) (string, bool) {
	if obj.Pkg() == nil {
		return "", false // universe objects: error, len, nil, ...
	}
	path := obj.Pkg().Path()
	if why, ok := bans[[2]string{path, obj.Name()}]; ok {
		return why, true
	}
	why, ok := bans[[2]string{path, ""}]
	return why, ok
}
