package core

// shardnet.go is the wire side of the sharded study: the coordinator ships
// each worker the run's identity — the journalMeta the slice journals
// already carry, i.e. the seed and parameters, never data. A remote worker
// (ConnectShardWorker) rebuilds the world, the crypto plane and its lab
// from that alone. The in-process fleets (RunSharded over the simulated
// network, RunShardedTCP over loopback TCP) share the world the
// coordinator already built and one crypto plane; their workers still
// decode and round-trip-verify the shipped run config before they touch
// that world. Every transport therefore leaves behind the same slice
// journals, and MergeShards consumes them unchanged; the merged export is
// held byte-identical to a single-process run by the chaos drill and the
// public tests.
//
// All three transported runs share one body, runShards: the in-process
// fleet on the simulated network (RunSharded) or on loopback TCP
// (RunShardedTCP), and ServeShards, which runs the coordinator alone for
// ConnectShardWorker processes — the cross-machine recipe in the README.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"pinscope/internal/appmodel"
	"pinscope/internal/faultinject"
	"pinscope/internal/pki"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// netRunConfig is the Welcome payload: the run identity a worker needs to
// rebuild its bench. Run is the same journalMeta every slice journal
// carries, so a worker and a journal can never disagree about what run
// they belong to.
type netRunConfig struct {
	Run        journalMeta `json:"run"`
	Shards     int         `json:"shards"`
	ColdCrypto bool        `json:"cold_crypto,omitempty"`
}

func encodeNetRunConfig(cfg Config, shards int) ([]byte, error) {
	return json.Marshal(netRunConfig{Run: metaFor(cfg), Shards: shards, ColdCrypto: cfg.ColdCrypto})
}

// decodeNetRunConfig is the worker side of "ship the seed, not the data":
// it rebuilds the study Config (all but the timeline stores, which need
// the world) and the shard count from the wire run config. The round-trip
// is verified: the rebuilt config must reproduce the shipped journalMeta
// exactly, so a journalMeta field that this decoder forgets to restore
// fails loudly instead of silently measuring a different run.
func decodeNetRunConfig(raw []byte) (Config, int, error) {
	var rc netRunConfig
	if err := json.Unmarshal(raw, &rc); err != nil {
		return Config{}, 0, fmt.Errorf("core: run config: %w", err)
	}
	if rc.Run.Format != journalFormatVersion {
		return Config{}, 0, fmt.Errorf("core: run config format %d, this worker speaks %d", rc.Run.Format, journalFormatVersion)
	}
	if rc.Shards <= 0 {
		return Config{}, 0, fmt.Errorf("core: run config has %d shards", rc.Shards)
	}
	cfg := Config{
		Params:     rc.Run.Params,
		Window:     rc.Run.Window,
		Retries:    rc.Run.Retries,
		Release:    rc.Run.Release,
		ColdCrypto: rc.ColdCrypto,
	}
	if rc.Run.FaultSeed != 0 || rc.Run.FaultRates != (faultinject.Rates{}) {
		cfg.Faults = faultinject.NewPlan(rc.Run.FaultSeed, rc.Run.FaultRates)
	}
	if got := metaFor(cfg); got != rc.Run {
		return Config{}, 0, errors.New("core: run config did not round-trip; a run-identity field is not being shipped")
	}
	return cfg, rc.Shards, nil
}

// fleetFromRunConfig decodes a wire run config into the shard fleet it
// names, over world w (nil builds the world the config names). A release
// resolves to the timeline point's trust stores in that world.
func fleetFromRunConfig(raw []byte, w *worldgen.World) (*shardFleet, error) {
	cfg, shards, err := decodeNetRunConfig(raw)
	if err != nil {
		return nil, err
	}
	if w == nil {
		if w, err = worldgen.Build(cfg.Params); err != nil {
			return nil, err
		}
	}
	if cfg.Release != "" {
		pts, err := selectPoints(w.Timeline, []string{cfg.Release})
		if err != nil {
			return nil, fmt.Errorf("core: run config release: %w", err)
		}
		android, ios, err := w.Timeline.StoresAt(pts[0])
		if err != nil {
			return nil, fmt.Errorf("core: run config release: %w", err)
		}
		cfg.Stores = map[appmodel.Platform]*pki.RootStore{
			appmodel.Android: android,
			appmodel.IOS:     ios,
		}
	}
	return newShardFleet(cfg, w, shards)
}

// benchFromRunConfig is a remote worker's bench: the one place a worker
// builds its own world, from nothing but the wire run config.
func benchFromRunConfig(raw []byte) (shardnet.Bench, error) {
	fleet, err := fleetFromRunConfig(raw, nil)
	if err != nil {
		return nil, err
	}
	return fleet.newBench()
}

// localBench is the NewBench of an in-process fleet: one shard fleet over
// the run's world w, decoded from the same wire run config rc every
// worker is shipped. Each worker's bench still decodes and round-trip
// verifies the Welcome payload, and refuses one naming a run other than
// the one the shared world was built for.
func localBench(rc []byte, w *worldgen.World) (func([]byte) (shardnet.Bench, error), error) {
	fleet, err := fleetFromRunConfig(rc, w)
	if err != nil {
		return nil, err
	}
	return func(raw []byte) (shardnet.Bench, error) {
		cfg, shards, err := decodeNetRunConfig(raw)
		if err != nil {
			return nil, err
		}
		if metaFor(cfg) != metaFor(fleet.cfg) || cfg.ColdCrypto != fleet.cfg.ColdCrypto || shards != len(fleet.ranges) {
			return nil, errors.New("core: Welcome run config names a different run than this process's shared world")
		}
		return fleet.newBench()
	}, nil
}

// TCP-side timing: wall-clock analogues of the simulated network's
// tick-denominated lease TTL, generous enough for loopback and LAN.
const (
	tcpLeaseTTL    = 2 * time.Second
	tcpIdleTimeout = 500 * time.Millisecond
)

// runShards is the one body of every transported sharded run. It checks
// the arguments, builds the world unless the caller passes one (the world
// is only read, so the chaos drill reruns a point on the point's own
// world), derives the slices and the wire run config from it, arms the
// fault plan, and runs the coordinator: on shardnet's simulated network
// when tcpAddr is empty, else listening on tcpAddr. With fleet set, an
// in-process worker fleet sharing the world works the slices; without,
// the workers are whoever connects (ServeShards).
func runShards(cfg Config, sc ShardedConfig, w *worldgen.World, tcpAddr string, fleet bool) (*shardnet.Stats, error) {
	if err := prepareShardRun(sc); err != nil {
		return nil, err
	}
	if w == nil {
		var err error
		if w, err = worldgen.Build(cfg.Params); err != nil {
			return nil, err
		}
	}
	slices, err := shardSlices(cfg, sc, sliceRanges(len(studyWork(w)), sc.Shards))
	if err != nil {
		return nil, err
	}
	rc, err := encodeNetRunConfig(cfg, sc.Shards)
	if err != nil {
		return nil, err
	}
	var newBench func([]byte) (shardnet.Bench, error)
	if fleet {
		if newBench, err = localBench(rc, w); err != nil {
			return nil, err
		}
	}
	faults := sc.Faults.Arm()
	ccfg := shardnet.Config{Slices: slices, RunConfig: rc, BackoffSeed: cfg.Params.Seed}
	wopt := shardnet.WorkerOptions{
		NewBench:    newBench,
		Reconnects:  16,
		BackoffSeed: cfg.Params.Seed,
		KillTap:     faults.Kill,
	}
	var dialer shardnet.Dialer
	if tcpAddr == "" {
		net := shardnet.NewSimNet(faults)
		ccfg.Listener, ccfg.Clock = net.Listener(), net
		dialer, wopt.Clock, wopt.Scope = net.Dialer(), net, "sim/"
	} else {
		ln, err := shardnet.ListenTCP(tcpAddr, shardnet.TCPOptions{})
		if err != nil {
			return nil, err
		}
		ccfg.Listener, ccfg.Clock, ccfg.LeaseTTL = ln, shardnet.WallClock(), int64(tcpLeaseTTL)
		dialer = shardnet.TCPDialer{Addr: ln.Addr()}
		wopt.Clock, wopt.IdleTimeout, wopt.Scope = shardnet.WallClock(), int64(tcpIdleTimeout), "tcp/"
		wopt.BackoffBase = int64(50 * time.Millisecond)
	}
	coord, err := shardnet.NewCoordinator(ccfg)
	if err != nil {
		ccfg.Listener.Close()
		return nil, err
	}
	if !fleet {
		return coord.Run()
	}
	workers := sc.Workers
	if workers <= 0 {
		workers = sc.Shards
	}
	return shardnet.RunFleet(coord, workers, func(i int) error {
		opt := wopt
		opt.Scope += strconv.Itoa(i)
		return shardnet.RunWorker(dialer, opt)
	})
}

// RunShardedTCP is RunSharded over real loopback TCP: the coordinator
// listens on 127.0.0.1, the worker fleet dials it, and every frame
// crosses an actual socket. The plan's network faults are not injected —
// the wire is real — but its worker kills still fire, leaving torn wire
// frames the receiver's framing must reject.
func RunShardedTCP(cfg Config, sc ShardedConfig) (*shardnet.Stats, error) {
	return runShards(cfg, sc, nil, "127.0.0.1:0", true)
}

// ServeShards runs the coordinator half of a cross-machine sharded study:
// it listens on addr, ships every connecting worker the run config, and
// returns when all slices are journaled in sc.Dir (merge them with
// MergeShards). The fleet is whoever connects: sc.Workers is not read, and
// no fault plan reaches a remote worker. It waits for workers rather than
// failing when none are connected, so workers may be started after — or
// restarted during — the run; an interrupted serve resumes from the
// journals like any sharded run.
func ServeShards(cfg Config, sc ShardedConfig, addr string) (*shardnet.Stats, error) {
	return runShards(cfg, sc, nil, addr, false)
}

// ConnectShardWorker runs the worker half of a cross-machine sharded
// study: it dials the coordinator at addr, rebuilds the world from the
// run config it is handed, and works granted slices until the coordinator
// reports the run done.
func ConnectShardWorker(addr string, scope string) error {
	return shardnet.RunWorker(shardnet.TCPDialer{Addr: addr}, shardnet.WorkerOptions{
		Clock:       shardnet.WallClock(),
		NewBench:    benchFromRunConfig,
		IdleTimeout: int64(tcpIdleTimeout),
		Reconnects:  60,
		BackoffBase: int64(250 * time.Millisecond),
		Scope:       "cli/" + scope,
	})
}
