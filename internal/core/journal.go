package core

// journal.go makes study runs crash-only: every completed AppResult is
// streamed into an append-only internal/journal WAL, and a resumed run
// replays the journaled results instead of re-measuring those apps.
// Because every per-app measurement is a pure function of (seed, app) —
// the same property that makes worker scheduling irrelevant — a resumed
// run's export is byte-identical to an uninterrupted run's.

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
	"pinscope/internal/worldgen"
)

// journalFormatVersion versions the record payloads inside the WAL (the
// frame layer has its own magic). Bump on any journalRecord shape change.
// Version 2 added the shard fields (app header, dataset membership,
// probes) that let the merge run without a world.
const journalFormatVersion = 2

// journalMeta is the header frame: everything that must match for a
// journal's results to be valid replays in the current run. All fields
// are comparable, so resume verification is a struct equality.
type journalMeta struct {
	Format     int               `json:"format"`
	Params     worldgen.Params   `json:"params"`
	Window     float64           `json:"capture_window_s"`
	FaultSeed  int64             `json:"fault_seed"`
	FaultRates faultinject.Rates `json:"fault_rates"`
	Retries    int               `json:"retries"`
	// Release is the root-program timeline point measured (empty for
	// snapshot runs). omitempty keeps pre-timeline journals replayable:
	// their headers decode to "" and snapshot runs marshal no field at
	// all, so the bytes match too.
	Release string `json:"release,omitempty"`
}

func metaFor(cfg Config) journalMeta {
	return journalMeta{
		Format:     journalFormatVersion,
		Params:     cfg.Params,
		Window:     cfg.Window,
		FaultSeed:  cfg.Faults.Seed(),
		FaultRates: cfg.Faults.Rates(),
		Retries:    cfg.Retries,
		Release:    cfg.Release,
	}
}

// journalCert carries a found certificate as DER bytes; *x509.Certificate
// itself cannot round-trip JSON (interface-typed PublicKey), but its Raw
// encoding re-parses into a semantically identical certificate.
type journalCert struct {
	Path string `json:"path"`
	DER  []byte `json:"der"`
}

type journalPin struct {
	Path string  `json:"path"`
	Raw  string  `json:"raw"`
	Pin  pki.Pin `json:"pin"`
}

// journalStatic mirrors staticanalysis.Report with serializable certs.
type journalStatic struct {
	AppID             string        `json:"app_id"`
	Platform          string        `json:"platform"`
	Certs             []journalCert `json:"certs,omitempty"`
	Pins              []journalPin  `json:"pins,omitempty"`
	NSC               *apppkg.NSC   `json:"nsc,omitempty"`
	NSCHasPins        bool          `json:"nsc_has_pins"`
	AssociatedDomains []string      `json:"associated_domains,omitempty"`
	Misconfigs        []string      `json:"misconfigs,omitempty"`
}

// journalApp is the app header an export record carries (exportApp).
type journalApp struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Developer string `json:"developer"`
	Platform  string `json:"platform"`
	Category  string `json:"category"`
	Release   string `json:"release,omitempty"`
}

// journalRecord is one journaled AppResult. The App pointer is not
// serialized: a resumed study rebuilds the world and re-links the record
// to it by Key.
type journalRecord struct {
	Key string `json:"key"`

	// Shard records (encodeShardRecord) also carry what the merge would
	// otherwise need the world for: the app header, the app's dataset
	// membership, and the exported probe of every destination the record
	// reports pinned, in PinnedDests order. Study journals leave them
	// empty; their readers have the world.
	App      *journalApp     `json:"app,omitempty"`
	Datasets []string        `json:"datasets,omitempty"`
	Probes   []ExportedProbe `json:"probes,omitempty"`

	Static    *journalStatic          `json:"static,omitempty"`
	StaticErr string                  `json:"static_err,omitempty"`
	Dyn       *dynamicanalysis.Result `json:"dyn,omitempty"`

	WeakAnyConn    bool `json:"weak_any_conn"`
	WeakPinnedConn bool `json:"weak_pinned_conn"`

	CircumventedDests map[string]bool              `json:"circumvented_dests,omitempty"`
	DestPII           map[string]map[pii.Kind]bool `json:"dest_pii,omitempty"`
	ObservedDests     map[string]bool              `json:"observed_dests,omitempty"`

	Confidence  int    `json:"confidence"`
	Attempts    int    `json:"attempts"`
	FromAttempt int    `json:"from_attempt"`
	Quarantined bool   `json:"quarantined"`
	Err         string `json:"err,omitempty"`
	DynRun      string `json:"dyn_run,omitempty"`
}

// encodeAppResult serializes one result for a study journal.
func encodeAppResult(key string, r *AppResult) ([]byte, error) {
	rec, err := recordFor(key, r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rec)
}

// encodeShardRecord serializes one result for a slice journal, with the
// app header, its dataset membership and the probes of its pinned
// destinations.
func encodeShardRecord(key string, r *AppResult, datasets []string, probes []ExportedProbe) ([]byte, error) {
	rec, err := recordFor(key, r)
	if err != nil {
		return nil, err
	}
	rec.App = &journalApp{
		ID: r.App.ID, Name: r.App.Name, Developer: r.App.Developer,
		Platform: string(r.App.Platform), Category: r.App.Category, Release: r.App.Release,
	}
	rec.Datasets = datasets
	rec.Probes = probes
	return json.Marshal(rec)
}

func recordFor(key string, r *AppResult) (*journalRecord, error) {
	rec := &journalRecord{
		Key:               key,
		Dyn:               r.Dyn,
		WeakAnyConn:       r.WeakAnyConn,
		WeakPinnedConn:    r.WeakPinnedConn,
		CircumventedDests: r.CircumventedDests,
		DestPII:           r.DestPII,
		ObservedDests:     r.ObservedDests,
		Confidence:        int(r.Confidence),
		Attempts:          r.Attempts,
		FromAttempt:       r.FromAttempt,
		Quarantined:       r.Quarantined,
		DynRun:            r.DynRun,
	}
	if r.StaticErr != nil {
		rec.StaticErr = r.StaticErr.Error()
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	if r.Static != nil {
		js := &journalStatic{
			AppID:             r.Static.AppID,
			Platform:          string(r.Static.Platform),
			NSC:               r.Static.NSC,
			NSCHasPins:        r.Static.NSCHasPins,
			AssociatedDomains: r.Static.AssociatedDomains,
			Misconfigs:        r.Static.Misconfigs,
		}
		for _, c := range r.Static.Certs {
			if c.Cert == nil {
				return nil, fmt.Errorf("core: journal encode %s: found cert %s has no parsed certificate", key, c.Path)
			}
			js.Certs = append(js.Certs, journalCert{Path: c.Path, DER: c.Cert.Raw})
		}
		for _, p := range r.Static.Pins {
			js.Pins = append(js.Pins, journalPin{Path: p.Path, Raw: p.Raw, Pin: p.Pin})
		}
		rec.Static = js
	}
	return rec, nil
}

// decodeRecord parses one journal record. Every byte has already passed
// the journal's CRC; failures here mean a format change, and are loud.
func decodeRecord(data []byte) (*journalRecord, error) {
	var rec journalRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("core: decode journal record: %w", err)
	}
	return &rec, nil
}

// decodeAppResult materializes a journaled record against the rebuilt
// world's app.
func decodeAppResult(data []byte, app *appmodel.App) (*AppResult, error) {
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, err
	}
	if want := string(app.Platform) + "/" + app.ID; rec.Key != want {
		return nil, fmt.Errorf("core: journal record %q where %q belongs", rec.Key, want)
	}
	return rec.result(app)
}

// decodeShardRecord materializes a slice journal record against the app
// header it carries — no world needed.
func decodeShardRecord(data []byte) (*journalRecord, *AppResult, error) {
	rec, err := decodeRecord(data)
	if err != nil {
		return nil, nil, err
	}
	h := rec.App
	if h == nil {
		return nil, nil, fmt.Errorf("core: journal record %q carries no app header", rec.Key)
	}
	app := &appmodel.App{
		ID: h.ID, Name: h.Name, Developer: h.Developer,
		Platform: appmodel.Platform(h.Platform), Category: h.Category, Release: h.Release,
	}
	if want := h.Platform + "/" + h.ID; rec.Key != want {
		return nil, nil, fmt.Errorf("core: journal record %q carries the header of %q", rec.Key, want)
	}
	res, err := rec.result(app)
	return rec, res, err
}

// result rebuilds the AppResult a record holds, linked to app.
func (rec *journalRecord) result(app *appmodel.App) (*AppResult, error) {
	r := &AppResult{
		App:               app,
		Dyn:               rec.Dyn,
		WeakAnyConn:       rec.WeakAnyConn,
		WeakPinnedConn:    rec.WeakPinnedConn,
		CircumventedDests: rec.CircumventedDests,
		DestPII:           rec.DestPII,
		ObservedDests:     rec.ObservedDests,
		Confidence:        Confidence(rec.Confidence),
		Attempts:          rec.Attempts,
		FromAttempt:       rec.FromAttempt,
		Quarantined:       rec.Quarantined,
		DynRun:            rec.DynRun,
	}
	if rec.StaticErr != "" {
		r.StaticErr = errors.New(rec.StaticErr)
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	if rec.Static != nil {
		rep := &staticanalysis.Report{
			AppID:             rec.Static.AppID,
			Platform:          appmodel.Platform(rec.Static.Platform),
			NSC:               rec.Static.NSC,
			NSCHasPins:        rec.Static.NSCHasPins,
			AssociatedDomains: rec.Static.AssociatedDomains,
			Misconfigs:        rec.Static.Misconfigs,
		}
		for _, c := range rec.Static.Certs {
			cert, err := x509.ParseCertificate(c.DER)
			if err != nil {
				return nil, fmt.Errorf("core: journal record %s: reparse cert %s: %w", rec.Key, c.Path, err)
			}
			rep.Certs = append(rep.Certs, staticanalysis.FoundCert{Path: c.Path, Cert: cert})
		}
		for _, p := range rec.Static.Pins {
			rep.Pins = append(rep.Pins, staticanalysis.FoundPin{Path: p.Path, Raw: p.Raw, Pin: p.Pin})
		}
		r.Static = rep
	}
	return r, nil
}

// StudyJournal is the runner-facing face of the WAL: a sink for completed
// results plus (after a resume) the replay source of previously journaled
// ones. All methods tolerate a nil receiver, so the runner threads one
// pointer through without guarding.
type StudyJournal struct {
	w *journal.Writer

	mu     sync.Mutex
	replay map[string][]byte
}

// CreateJournal starts a fresh journal for cfg at path. The header frame
// records the full run configuration so a later resume can refuse to mix
// runs.
func CreateJournal(path string, cfg Config) (*StudyJournal, error) {
	meta, err := json.Marshal(metaFor(cfg))
	if err != nil {
		return nil, err
	}
	w, err := journal.Create(path, meta)
	if err != nil {
		return nil, err
	}
	return &StudyJournal{w: w}, nil
}

// ResumeJournal recovers the journal at path, verifies it was written by
// an identical configuration, and reopens it for appending (dropping a
// torn tail at the last verified frame).
func ResumeJournal(path string, cfg Config) (*StudyJournal, error) {
	rec, err := journal.Recover(path)
	if err != nil {
		return nil, err
	}
	var got journalMeta
	dec := json.NewDecoder(bytes.NewReader(rec.Meta))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return nil, fmt.Errorf("core: journal %s: undecodable header: %w", path, err)
	}
	if want := metaFor(cfg); got != want {
		return nil, fmt.Errorf("core: journal %s was written by a different run configuration: journal %+v, current %+v",
			path, got, want)
	}
	replay := make(map[string][]byte, len(rec.Results))
	for i, data := range rec.Results {
		var k struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(data, &k); err != nil || k.Key == "" {
			return nil, fmt.Errorf("core: journal %s: result %d has no key: %v", path, i, err)
		}
		replay[k.Key] = data
	}
	w, err := rec.AppendTo(path)
	if err != nil {
		return nil, err
	}
	return &StudyJournal{w: w, replay: replay}, nil
}

// Replayed returns how many journaled results this journal holds for
// replay. Nil-safe.
func (j *StudyJournal) Replayed() int {
	if j == nil {
		return 0
	}
	return len(j.replay)
}

// Close releases the underlying file. Nil-safe; the journal file itself
// stays on disk as the run's durable record.
func (j *StudyJournal) Close() error {
	if j == nil {
		return nil
	}
	return j.w.Close()
}

// arm installs the power-cut tap. Nil-safe on both sides.
func (j *StudyJournal) arm(k *faultinject.ProcessKill) {
	if j == nil || k == nil {
		return
	}
	j.w.SetCrashTap(k.Tap())
}

// replayed hands out (and consumes nothing from) the replay record for
// key. Nil-safe.
func (j *StudyJournal) replayed(key string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.replay[key]
	return data, ok
}

// append journals one completed result durably. Nil-safe (then a no-op).
func (j *StudyJournal) append(key string, r *AppResult) error {
	if j == nil {
		return nil
	}
	data, err := encodeAppResult(key, r)
	if err != nil {
		return err
	}
	if err := j.w.Append(data); err != nil {
		if errors.Is(err, journal.ErrKilled) {
			return err
		}
		return fmt.Errorf("core: journal append %s: %w", key, err)
	}
	return nil
}

// RunJournaled is Run with crash-only durability: results stream into the
// journal at path, and with resume set the journaled results of a previous
// (killed) run are replayed instead of re-measured. Determinism makes the
// resumed study's export byte-identical to an uninterrupted run's.
func RunJournaled(cfg Config, path string, resume bool) (*Study, error) {
	if cfg.Window == 0 {
		cfg.Window = 30
	}
	var (
		j   *StudyJournal
		err error
	)
	if resume {
		j, err = ResumeJournal(path, cfg)
	} else {
		j, err = CreateJournal(path, cfg)
	}
	if err != nil {
		return nil, err
	}
	cfg.Journal = j
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		j.Close()
		return nil, err
	}
	s, err := RunOnWorld(cfg, w)
	if err != nil {
		j.Close()
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return s, nil
}
