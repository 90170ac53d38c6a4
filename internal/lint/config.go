package lint

// TypeRef names a type by package path and local name.
type TypeRef struct {
	Pkg  string
	Name string
}

// The packages whose types and functions the analyzers watch. Each has one
// value, shared by the tree and the testdata fixtures (which import the
// real packages).
const (
	detrandPkg  = "pinscope/internal/detrand"
	journalPkg  = "pinscope/internal/journal"
	atomicioPkg = "pinscope/internal/atomicio"
)

// Config is the policy table the analyzers consult. Every analyzer scans
// every loaded package; the table only says where the rules bend. The zero
// value is the strictest policy; DefaultConfig returns pinscope's real one.
// Tests build small configs pointing at their testdata packages.
type Config struct {
	// AllowedWallClock maps a serving/CLI package's import path to the
	// functions ("F" or "Type.Method") in which detrandonly permits
	// wall-clock and ambient reads — operational telemetry. A package
	// without an entry is simulation-grade: no ambient entropy at all.
	AllowedWallClock map[string][]string

	// ExportRoots are the types whose reachable closure exportshape holds
	// to the versioned-snapshot contract (explicit json tags on every
	// exported field, no interface-typed fields, no untagged embedding).
	ExportRoots []TypeRef

	// SwapFuncs maps a package's import path to the functions ("F" or
	// "Type.Method") designated to Store/Swap atomic.Pointer fields.
	// atomicswap scans exactly the packages listed here.
	SwapFuncs map[string][]string

	// JournalWriterPackages lists the packages permitted to construct or
	// resume WAL writers (journal.Create / ResumeWriter).
	JournalWriterPackages []string

	// Owners maps an analyzer name to the package that implements the
	// contract the analyzer enforces. That package is exempt from the
	// analyzer: internal/atomicio may write in place, internal/pki may
	// generate keys, and so on.
	Owners map[string]string
}

// DefaultConfig is pinscope's policy, consulted by cmd/pinlint and
// scripts/check.sh.
func DefaultConfig() *Config {
	return &Config{
		AllowedWallClock: map[string][]string{
			// Serving-layer telemetry: request latency, uptime, snapshot
			// build and swap timestamps. None of it feeds study artifacts.
			"pinscope/internal/pinserve": {
				"Build",              // stats.BuildMicros
				"New",                // uptime epoch
				"Server.swap",        // last-load timestamp
				"Server.wrap",        // per-request latency histogram
				"Server.handleStats", // uptime report
			},
			// The TCP transport is the one shardnet file on real time:
			// frame deadlines and lease TTLs against remote peers have to
			// be wall-clock. Both readers implement the package's Clock
			// interface; everything else in the package schedules on it.
			"pinscope/internal/shardnet": {
				"wallClock.Now",
				"wallClock.WaitUntil",
				"wallDeadline",
			},
			// CLI progress banners time the run for the operator.
			"pinscope/cmd/worldgen":  {"main"},
			"pinscope/cmd/pinstudy":  {"main", "runSharded", "runShardServe", "runTimeline"},
			"pinscope/cmd/pinscoped": {"main", "runSelftest"},
		},
		ExportRoots: []TypeRef{
			// The versioned snapshot written by core.WriteJSON and read
			// back by core.ReadJSON — the public dataset contract.
			{Pkg: "pinscope/internal/core", Name: "ExportedDataset"},
			// The serving layer's pre-rendered response payloads are
			// snapshot-derived JSON contracts of their own.
			{Pkg: "pinscope/internal/pinserve", Name: "DestInfo"},
			{Pkg: "pinscope/internal/pinserve", Name: "PinAnswer"},
			{Pkg: "pinscope/internal/pinserve", Name: "DistrustAnswer"},
			{Pkg: "pinscope/internal/pinserve", Name: "IndexStats"},
		},
		SwapFuncs: map[string][]string{
			"pinscope/internal/pinserve": {"Server.swap"},
		},
		JournalWriterPackages: []string{
			journalPkg,
			"pinscope/internal/core",
			"pinscope/internal/shardnet",
		},
		Owners: map[string]string{
			"atomicwrite":       atomicioPkg,
			"pkiissuance":       "pinscope/internal/pki",
			"journaldiscipline": journalPkg,
			"detrandflow":       detrandPkg,
		},
	}
}

// owns reports whether pass's package owns the contract its analyzer
// enforces (Config.Owners), and so is exempt from it.
func (p *Pass) owns(cfg *Config) bool {
	return cfg.Owners[p.Analyzer.Name] == p.PkgPath
}
