package shardnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
)

// waitOn passes simulated time from a goroutine that holds an open
// connection: it drains (and discards) frames until the target tick,
// using Recv deadlines so the blocked end keeps participating in the
// clock warp. Returns any non-timeout connection error.
func waitOn(conn Conn, clock Clock, target int64) error {
	for {
		wait := target - clock.Now()
		if wait <= 0 {
			return nil
		}
		if _, err := conn.Recv(wait); err != nil {
			if errors.Is(err, ErrRecvTimeout) {
				return nil
			}
			return err
		}
	}
}

// fakeBench is a pure bench: the payload for (slice, item) is a fixed
// function of its coordinates, so byte-exactness of the journals is easy
// to assert and any duplicate, replay or recompute produces identical
// bytes — the same property the real study bench guarantees.
type fakeBench struct{}

func (fakeBench) RunItem(slice, item int) ([]byte, error) {
	return itemPayload(slice, item), nil
}

func itemPayload(slice, item int) []byte {
	return []byte(fmt.Sprintf("result slice=%d item=%d payload-padding", slice, item))
}

func newFakeBench(runConfig []byte) (Bench, error) {
	if string(runConfig) != "fake-run-config" {
		return nil, fmt.Errorf("bench got wrong run config %q", runConfig)
	}
	return fakeBench{}, nil
}

func readFileBytes(path string) ([]byte, error) { return os.ReadFile(path) }

// testSlices builds n slices of the given item counts under dir.
func testSlices(dir string, items ...int) []Slice {
	out := make([]Slice, 0, len(items))
	for i, n := range items {
		out = append(out, Slice{
			Path:  filepath.Join(dir, fmt.Sprintf("slice-%02d.wal", i)),
			Meta:  []byte(fmt.Sprintf("slice %d meta", i)),
			Items: n,
		})
	}
	return out
}

// verifyJournals opens every slice WAL and holds it to exactly its item
// count of frames with the exact expected payloads — the byte-level
// ground truth every chaos scenario must land on.
func verifyJournals(t *testing.T, slices []Slice) {
	t.Helper()
	for i, s := range slices {
		r, err := journal.OpenReader(s.Path)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		if string(r.Meta()) != string(s.Meta) {
			t.Fatalf("slice %d: meta %q, want %q", i, r.Meta(), s.Meta)
		}
		for item := 0; ; item++ {
			data, err := r.Next()
			if errors.Is(err, io.EOF) {
				if item != s.Items {
					t.Fatalf("slice %d: %d frames, want %d", i, item, s.Items)
				}
				break
			}
			if err != nil {
				t.Fatalf("slice %d item %d: %v", i, item, err)
			}
			if !bytes.Equal(data, itemPayload(i, item)) {
				t.Fatalf("slice %d item %d: payload %q, want %q", i, item, data, itemPayload(i, item))
			}
		}
		r.Close()
	}
}

// simFleet is one simulated-network run: a coordinator plus a fleet of
// in-process workers over a SimNet injecting the plan's network faults and
// worker kills. listen, when set, wraps the coordinator's listener, and
// beforeDial runs in worker i's goroutine before it first dials.
type simFleet struct {
	slices     []Slice
	workers    int
	plan       faultinject.ShardPlan
	listen     func(Listener) Listener
	beforeDial func(i int)
}

// run drives the fleet to the end and returns the coordinator's outcome
// plus each worker's own error.
func (f simFleet) run(t *testing.T) (*Stats, []error, error) {
	t.Helper()
	faults := f.plan.Arm()
	simnet := NewSimNet(faults)
	var ln Listener = simnet.Listener()
	if f.listen != nil {
		ln = f.listen(ln)
	}
	coord, err := NewCoordinator(Config{
		Listener:    ln,
		Clock:       simnet,
		Slices:      f.slices,
		RunConfig:   []byte("fake-run-config"),
		BackoffSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	workerErrs := make([]error, f.workers)
	stats, err := RunFleet(coord, f.workers, func(i int) error {
		if f.beforeDial != nil {
			f.beforeDial(i)
		}
		workerErrs[i] = RunWorker(simnet.Dialer(), WorkerOptions{
			Clock:       simnet,
			NewBench:    newFakeBench,
			BackoffSeed: 7,
			Scope:       fmt.Sprintf("w%d", i),
			KillTap:     faults.Kill,
		})
		return workerErrs[i]
	})
	return stats, workerErrs, err
}

// runSim runs a simFleet that must complete.
func runSim(t *testing.T, slices []Slice, workers int, plan faultinject.ShardPlan) (*Stats, []error) {
	t.Helper()
	stats, workerErrs, err := simFleet{slices: slices, workers: workers, plan: plan}.run(t)
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	return stats, workerErrs
}

// journalBytes reads every slice WAL's raw bytes.
func journalBytes(t *testing.T, slices []Slice) [][]byte {
	t.Helper()
	out := make([][]byte, len(slices))
	for i, s := range slices {
		b, err := readFileBytes(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestSimRunCompletesAndJournals(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 3, 4)
	stats, workerErrs := runSim(t, slices, 2, nil)
	for i, e := range workerErrs {
		if e != nil {
			t.Fatalf("worker %d: %v", i, e)
		}
	}
	if stats.Granted < 3 || stats.Workers < 2 || stats.Heartbeats == 0 {
		t.Fatalf("stats = %+v, want >=3 grants, >=2 workers, heartbeats", stats)
	}
	verifyJournals(t, slices)
}

func TestSimEmptySliceCompletesWithoutGrant(t *testing.T) {
	slices := testSlices(t.TempDir(), 0, 2)
	stats, _ := runSim(t, slices, 1, nil)
	verifyJournals(t, slices)
	if stats.Granted != 1 {
		t.Fatalf("Granted = %d, want 1 (the empty slice completes at open)", stats.Granted)
	}
}

func TestSimDuplicateDeliveryIsIdempotent(t *testing.T) {
	slices := testSlices(t.TempDir(), 4, 4)
	stats, _ := runSim(t, slices, 2, faultinject.ShardPlan{{Slice: 1, Item: 2}: {Dup: true}})
	if stats.Duplicates < 1 {
		t.Fatalf("Duplicates = %d, want >= 1 (the dup fault must actually fire)", stats.Duplicates)
	}
	verifyJournals(t, slices)
}

func TestSimDropSeversConnAndRunResumes(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 5)
	stats, _ := runSim(t, slices, 2, faultinject.ShardPlan{{Slice: 0, Item: 2}: {Drop: true}})
	if stats.ConnDrops < 1 {
		t.Fatalf("ConnDrops = %d, want >= 1 (the drop severs the stream)", stats.ConnDrops)
	}
	if stats.Granted <= len(slices) {
		t.Fatalf("Granted = %d, want > %d (the severed slice needs a second grant)", stats.Granted, len(slices))
	}
	verifyJournals(t, slices)
}

func TestSimPartitionExpiresLeaseAndRecovers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		afterItem int
	}{
		{"mid-slice", 2},
		// The partition swallows the slice's final result: the journal is
		// one frame short while the holder believes it is done, and the
		// takeover must complete the slice with no frame lost or doubled.
		{"final-result", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slices := testSlices(t.TempDir(), 6, 6)
			plan := faultinject.ShardPlan{{Slice: 0, Item: tc.afterItem}: {Partition: 2 * faultinject.NetTTL}}
			stats, _ := runSim(t, slices, 2, plan)
			if stats.Expired < 1 {
				t.Fatalf("Expired = %d, want >= 1 (heartbeat silence must expire the lease)", stats.Expired)
			}
			if stats.Reassigned < 1 {
				t.Fatalf("Reassigned = %d, want >= 1", stats.Reassigned)
			}
			verifyJournals(t, slices)
		})
	}
}

func TestSimDelayedFrameNeverLandsOutOfOrder(t *testing.T) {
	slices := testSlices(t.TempDir(), 6, 6)
	stats, _ := runSim(t, slices, 2, faultinject.ShardPlan{{Slice: 0, Item: 1}: {Delay: 3 * faultinject.NetTTL / 2}})
	// The late frame either reorders behind its successors (buffered) or
	// arrives after its epoch died (fenced / duplicate); whichever way the
	// race lands, the journal bytes must be exact.
	if stats.Reordered+stats.Fenced+stats.Duplicates+stats.Expired == 0 {
		t.Fatalf("stats = %+v: the delay fault left no trace", stats)
	}
	verifyJournals(t, slices)
}

func TestSimWorkerKillMidStreamResumes(t *testing.T) {
	slices := testSlices(t.TempDir(), 6, 4)
	plan := faultinject.ShardPlan{{Slice: 0, Item: 3}: {Kill: true, TornBytes: 5}}
	stats, workerErrs := runSim(t, slices, 2, plan)
	killed := 0
	for _, e := range workerErrs {
		if errors.Is(e, ErrWorkerKilled) {
			killed++
		}
	}
	if killed != 1 || stats.WorkersKilled != 1 {
		t.Fatalf("killed workers = %d, WorkersKilled = %d, want 1 (errs %v)", killed, stats.WorkersKilled, workerErrs)
	}
	if stats.ConnDrops < 1 || stats.Reassigned < 1 {
		t.Fatalf("stats = %+v, want a conn drop and a reassignment", stats)
	}
	// The three results admitted before the death are durable: the
	// takeover resumes after them instead of recomputing them.
	if stats.ResumedFrames != 3 {
		t.Fatalf("ResumedFrames = %d, want 3 (the takeover resumes at the kill point)", stats.ResumedFrames)
	}
	verifyJournals(t, slices)
}

func TestSimFleetSurvivesKillBeforeSecondDial(t *testing.T) {
	// Worker 0 dies on its first result before worker 1 has dialed: for
	// a moment the coordinator has no connection at all, yet the fleet is
	// not over. Worker 1 dials only once the coordinator has closed its
	// end of worker 0's connection — the dead connection is processed —
	// and the run must still complete.
	slices := testSlices(t.TempDir(), 3, 2)
	var watch *closeWatchListener
	stats, workerErrs, err := simFleet{
		slices:  slices,
		workers: 2,
		plan:    faultinject.ShardPlan{{Slice: 0, Item: 0}: {Kill: true}},
		listen: func(ln Listener) Listener {
			watch = &closeWatchListener{Listener: ln, firstClosed: make(chan struct{})}
			return watch
		},
		beforeDial: func(i int) {
			if i == 1 {
				<-watch.firstClosed
			}
		},
	}.run(t)
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	if !errors.Is(workerErrs[0], ErrWorkerKilled) || workerErrs[1] != nil {
		t.Fatalf("worker errs %v, want worker 0 killed and worker 1 done", workerErrs)
	}
	if stats.WorkersKilled != 1 || stats.Reassigned < 1 {
		t.Fatalf("stats = %+v, want one kill and slice 0 reassigned", stats)
	}
	verifyJournals(t, slices)
}

// closeWatchListener closes firstClosed when the coordinator closes its
// end of the first accepted connection.
type closeWatchListener struct {
	Listener
	accepted    bool
	firstClosed chan struct{}
}

func (l *closeWatchListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.accepted {
		return c, err
	}
	l.accepted = true // Accept runs on the coordinator's one accept loop
	return &closeWatchConn{Conn: c, closed: l.firstClosed}, nil
}

type closeWatchConn struct {
	Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeWatchConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

func TestSimManySlicesFewWorkersUnderChurn(t *testing.T) {
	// Twelve slices on four workers, three of them killed (one on its
	// very first result) and two live holders partitioned past their
	// leases — one of them on its slice's final result. The journals must
	// come out byte for byte as a clean run's.
	clean := testSlices(t.TempDir(), 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
	runSim(t, clean, 4, nil)
	want := journalBytes(t, clean)

	faulted := testSlices(t.TempDir(), 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
	stats, _ := runSim(t, faulted, 4, faultinject.ShardPlan{
		{Slice: 0, Item: 0}: {Kill: true},
		{Slice: 5, Item: 6}: {Kill: true, TornBytes: 21},
		{Slice: 9, Item: 3}: {Kill: true, TornBytes: 1},
		{Slice: 2, Item: 1}: {Partition: 3 * faultinject.NetTTL / 2},
		{Slice: 7, Item: 6}: {Partition: 3 * faultinject.NetTTL / 2},
	})
	if stats.WorkersKilled != 3 {
		t.Fatalf("WorkersKilled = %d, want 3", stats.WorkersKilled)
	}
	if stats.Expired < 2 || stats.Reassigned < 5 {
		t.Fatalf("stats = %+v, want both partitions expired and all five slices reassigned", stats)
	}
	verifyJournals(t, faulted)
	for i, got := range journalBytes(t, faulted) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("slice %d journal differs between the faulted and the clean run", i)
		}
	}
}

func TestCoordinatorRefusesBadConfig(t *testing.T) {
	simnet := NewSimNet(nil)
	dup := testSlices(t.TempDir(), 1, 1)
	dup[1].Path = dup[0].Path
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no transport", Config{Slices: testSlices(t.TempDir(), 1)}, "listener and a clock"},
		{"no slices", Config{Listener: simnet.Listener(), Clock: simnet}, "no slices"},
		{"duplicate path", Config{Listener: simnet.Listener(), Clock: simnet, Slices: dup}, "duplicate slice path"},
	} {
		if _, err := NewCoordinator(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := RunWorker(simnet.Dialer(), WorkerOptions{Clock: simnet}); err == nil {
		t.Fatal("worker without a bench constructor accepted")
	}
}

func TestForeignJournalIsRefusedOnResume(t *testing.T) {
	// A WAL with another run's meta sits where a slice journal belongs:
	// the run must fail at the slice's first grant, and the WAL must be
	// neither appended to nor truncated.
	slices := testSlices(t.TempDir(), 3, 2)
	w, err := journal.Create(slices[0].Path, []byte("someone else's run"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("their data")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := readFileBytes(slices[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (simFleet{slices: slices, workers: 1}).run(t); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("run over a foreign journal: %v, want a different-run error", err)
	}
	after, err := readFileBytes(slices[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the foreign journal was modified")
	}
}

// TestZombieEpochFrameIsFencedAndWALStaysIntact scripts the takeover race
// by hand: worker A holds epoch 1 of slice 0, appends one frame, then goes
// silent past the lease TTL; worker B takes over under epoch 2 and
// completes the slice; only then does A's delayed epoch-1 frame for item 1
// arrive. The coordinator must discard it through the fence — the WAL ends
// with exactly Items verified frames — and byte-identity on a resume of
// the finished journal proves no corruption slipped in.
func TestZombieEpochFrameIsFencedAndWALStaysIntact(t *testing.T) {
	slices := testSlices(t.TempDir(), 3, 1)
	simnet := NewSimNet(nil)
	coord, err := NewCoordinator(Config{
		Listener:  simnet.Listener(),
		Clock:     simnet,
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	scriptErr := make([]error, 2)
	aGranted := make(chan struct{})   // A holds slice 0 epoch 1
	zombieSent := make(chan struct{}) // A's stale frame is on the wire

	// Worker A: grabs the first grant (slice 0, epoch 1), sends item 0,
	// stalls past the TTL, then replays a stale epoch-1 frame for item 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(zombieSent)
		scriptErr[0] = func() error {
			conn, err := simnet.Dialer().Dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Send(Frame{Type: frameHello}); err != nil {
				return err
			}
			if f, err := conn.Recv(8 * faultinject.NetTTL); err != nil || f.Type != frameWelcome {
				return fmt.Errorf("welcome: %v (type %#x)", err, f.Type)
			}
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
			f, err := conn.Recv(8 * faultinject.NetTTL)
			if err != nil || f.Type != frameGrant {
				return fmt.Errorf("grant: %v (type %#x)", err, f.Type)
			}
			g, err := decodeGrant(f.Payload)
			if err != nil {
				return err
			}
			if g.Slice != 0 || g.Epoch != 1 || g.Start != 0 {
				return fmt.Errorf("unexpected grant %+v", g)
			}
			close(aGranted)
			if err := conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
				Slice: 0, Epoch: g.Epoch, Item: 0, Payload: itemPayload(0, 0),
			})}); err != nil {
				return err
			}
			// Silence: no heartbeats until well past the lease deadline
			// (the Fence the expiry sends is drained and ignored).
			if err := waitOn(conn, simnet, simnet.Now()+3*faultinject.NetTTL); err != nil {
				return err
			}
			// The zombie wakes and replays item 1 under its dead epoch.
			return conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
				Slice: 0, Epoch: g.Epoch, Item: 1, Payload: itemPayload(0, 1),
			})})
		}()
	}()

	// Worker B: dials once A holds slice 0, works every grant it gets —
	// including the slice-0 takeover — and keeps the takeover lease alive
	// on heartbeats until A's zombie frame is on the wire, so the fence
	// (not a shutdown) is what rejects it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		scriptErr[1] = func() error {
			<-aGranted
			conn, err := simnet.Dialer().Dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Send(Frame{Type: frameHello}); err != nil {
				return err
			}
			if f, err := conn.Recv(8 * faultinject.NetTTL); err != nil || f.Type != frameWelcome {
				return fmt.Errorf("welcome: %v (type %#x)", err, f.Type)
			}
			sawSliceZeroTakeover := false
			for {
				if err := conn.Send(Frame{Type: frameReady}); err != nil {
					return err
				}
				f, err := conn.Recv(faultinject.NetTTL)
				if errors.Is(err, ErrRecvTimeout) {
					continue
				}
				if err != nil {
					return err
				}
				switch f.Type {
				case frameGrant:
					g, err := decodeGrant(f.Payload)
					if err != nil {
						return err
					}
					if g.Slice == 0 {
						if g.Epoch < 2 || g.Start != 1 {
							return fmt.Errorf("takeover grant %+v, want epoch >= 2 resuming at 1", g)
						}
						sawSliceZeroTakeover = true
						// Heartbeat-hold until the zombie frame exists, then
						// one more beat so the warp delivers it to the fence.
						held := false
						for !held {
							select {
							case <-zombieSent:
								held = true
							default:
							}
							if err := conn.Send(Frame{Type: frameHeartbeat,
								Payload: encodeLeaseRef(leaseRef{Slice: g.Slice, Epoch: g.Epoch})}); err != nil {
								return err
							}
							if err := waitOn(conn, simnet, simnet.Now()+faultinject.NetTTL/8); err != nil {
								return err
							}
							if simnet.Now() > 100*faultinject.NetTTL {
								return errors.New("zombie frame never showed up")
							}
						}
					}
					for item := g.Start; item < g.Items; item++ {
						if err := conn.Send(Frame{Type: frameResult, Payload: encodeResult(result{
							Slice: g.Slice, Epoch: g.Epoch, Item: item, Payload: itemPayload(g.Slice, item),
						})}); err != nil {
							return err
						}
					}
				case frameDone:
					if !sawSliceZeroTakeover {
						return errors.New("run finished without a slice-0 takeover")
					}
					return nil
				}
			}
		}()
	}()

	stats, err := coord.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v)", err, stats)
	}
	for i, e := range scriptErr {
		if e != nil {
			t.Fatalf("scripted worker %d: %v", i, e)
		}
	}
	if stats.Expired < 1 {
		t.Fatalf("Expired = %d, want >= 1 (A's silence must expire the lease)", stats.Expired)
	}
	if stats.Fenced < 1 {
		t.Fatalf("Fenced = %d, want >= 1 (the zombie epoch-1 frame must be refused)", stats.Fenced)
	}
	if stats.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1 (slice 0 must be re-granted after A's silence)", stats.Reassigned)
	}
	verifyJournals(t, slices)

	// Byte-identity on resume: a fresh coordinator over the same journals
	// finds every slice complete and rewrites nothing.
	before := make([][]byte, len(slices))
	for i, s := range slices {
		b, err := readFileBytes(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = b
	}
	net2 := NewSimNet(nil)
	coord2, err := NewCoordinator(Config{
		Listener:  net2.Listener(),
		Clock:     net2,
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg2 sync.WaitGroup
	wg2.Add(1)
	var werr error
	go func() {
		defer wg2.Done()
		werr = RunWorker(net2.Dialer(), WorkerOptions{Clock: net2, NewBench: newFakeBench})
	}()
	stats2, err := coord2.Run()
	wg2.Wait()
	if err != nil || werr != nil {
		t.Fatalf("resume run: coord %v, worker %v", err, werr)
	}
	if stats2.Granted != 0 {
		t.Fatalf("resume Granted = %d, want 0 (every slice already complete)", stats2.Granted)
	}
	for i, s := range slices {
		after, err := readFileBytes(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before[i], after) {
			t.Fatalf("slice %d journal changed across a no-op resume", i)
		}
	}
}

func TestBackoffJitterIsDeterministicAndBounded(t *testing.T) {
	b := NewBackoff(11, "worker/3", 4, 64)
	var prev int64 = -1
	for attempt := 0; attempt < 10; attempt++ {
		d := b.Delay(attempt)
		if d != NewBackoff(11, "worker/3", 4, 64).Delay(attempt) {
			t.Fatalf("attempt %d: delay not a pure function of (seed, scope, attempt)", attempt)
		}
		if d < 1 || d > 96 { // max 64, jitter in [0.5, 1.5)
			t.Fatalf("attempt %d: delay %d out of [1, 96]", attempt, d)
		}
		if attempt >= 6 && prev >= 0 && d > 96 {
			t.Fatalf("attempt %d: delay %d escaped the cap", attempt, d)
		}
		prev = d
	}
	if NewBackoff(11, "worker/3", 4, 64).Delay(3) == NewBackoff(11, "worker/4", 4, 64).Delay(3) &&
		NewBackoff(11, "worker/3", 4, 64).Delay(4) == NewBackoff(11, "worker/4", 4, 64).Delay(4) {
		t.Fatal("distinct scopes produced identical jitter streams")
	}
}

func TestTCPLoopbackRunWithMidStreamKill(t *testing.T) {
	slices := testSlices(t.TempDir(), 5, 4)
	ln, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{
		Listener:  ln,
		Clock:     WallClock(),
		Slices:    slices,
		RunConfig: []byte("fake-run-config"),
		LeaseTTL:  int64(2_000_000_000), // 2s in wall nanoseconds
	})
	if err != nil {
		t.Fatal(err)
	}
	// A torn wire prefix: the framing must reject it.
	faults := faultinject.ShardPlan{{Slice: 0, Item: 2}: {Kill: true, TornBytes: 7}}.Arm()
	workerErrs := make([]error, 2)
	stats, err := RunFleet(coord, 2, func(i int) error {
		workerErrs[i] = RunWorker(TCPDialer{Addr: ln.Addr()}, WorkerOptions{
			Clock:       WallClock(),
			NewBench:    newFakeBench,
			IdleTimeout: int64(250_000_000), // 250ms
			BackoffBase: int64(20_000_000),  // 20ms
			Scope:       fmt.Sprintf("tcp%d", i),
			KillTap:     faults.Kill,
		})
		return workerErrs[i]
	})
	if err != nil {
		t.Fatalf("coordinator: %v (stats %+v, worker errs %v)", err, stats, workerErrs)
	}
	if stats.WorkersKilled != 1 || !errors.Is(workerErrs[0], ErrWorkerKilled) && !errors.Is(workerErrs[1], ErrWorkerKilled) {
		t.Fatalf("WorkersKilled = %d, want 1 (errs %v)", stats.WorkersKilled, workerErrs)
	}
	if stats.ConnDrops < 1 || stats.Reassigned < 1 {
		t.Fatalf("stats = %+v, want the killed conn dropped and slice 0 reassigned", stats)
	}
	verifyJournals(t, slices)
}

func TestTCPRejectsWrongMagic(t *testing.T) {
	opt := TCPOptions{HandshakeTimeout: 500 * time.Millisecond}
	ln, err := ListenTCP("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()

	// A peer speaking the journal magic — the closest plausible confusion —
	// must be refused by the wire magic, and must not kill the listener.
	bad, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("PINWAL1\n")); err != nil {
		t.Fatal(err)
	}
	// The listener sends its own magic, sees ours mismatch, and hangs up:
	// past its 8-byte magic the bad peer reads only EOF, never a frame.
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(wireMagic))
	if _, err := io.ReadFull(bad, got); err != nil {
		t.Fatalf("reading listener magic: %v", err)
	}
	if string(got) != wireMagic {
		t.Fatalf("listener magic = %q, want %q", got, wireMagic)
	}
	if n, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after bad magic: read %d bytes, err %v, want EOF", n, err)
	}

	// The accept loop survived: a well-behaved dial still lands.
	if _, err := (TCPDialer{Addr: ln.Addr(), Opt: opt}).Dial(); err != nil {
		t.Fatalf("good dial after bad peer should succeed: %v", err)
	}
	if err := <-accepted; err != nil {
		t.Fatalf("accept: %v", err)
	}
}
