package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"disc/internal/ckpt"
	"disc/internal/server"
)

// Repetitions inside one run; each reported time is their median.
const (
	setupReps   = 5
	recoverReps = 5
)

// session is one server with its writer and reader, from set-up on.
type session struct {
	w        workload
	dir      string
	in       *inputs
	inst     *instance
	wr       *writer
	rd       *reader
	ph       *phase
	heapBase uint64 // live heap before the server started (inputs included)
}

// setUp generates the inputs, starts a server on dir and fills the
// window. The returned duration is the set-up time; the forced GC that
// takes the heap baseline in between is not part of it.
func setUp(w workload, seed int64, seconds int, dir string, traced bool) (*session, time.Duration, error) {
	t0 := time.Now()
	in, err := generate(w, seed, seconds)
	if err != nil {
		return nil, 0, err
	}
	gen := time.Since(t0)
	ph := newPhase(w, in, seconds)
	base := liveHeap()
	t1 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	inst, err := startInstance(multiConfig(w, dir, traced))
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, dir: dir, in: in, inst: inst, ph: ph, heapBase: base,
		wr: &writer{w: w, c: newClient(inst.base), in: in}}
	s.rd = &reader{w: w, c: newClient(inst.base), wr: s.wr, rng: rand.New(rand.NewSource(seed))}
	if err := s.wr.postAll(in.fill); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("filling the window: %w", err)
	}
	return s, gen + time.Since(t1), nil
}

func (s *session) close() {
	s.wr.c.close()
	if s.rd != nil {
		s.rd.c.close()
	}
	s.inst.close()
}

// warmUp ingests a few strides untimed, ending on a stride boundary.
func (s *session) warmUp() error {
	return s.wr.postStream(warmupStrides * s.w.stride / s.w.batch)
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkpoint is the one checkpoint a run writes.
type checkpoint struct {
	pos   int // stream position it holds
	dur   time.Duration
	bytes int
}

// checkpointAndTail brings the stream to a stride boundary, writes one
// checkpoint through the server's own snapshot and the checkpoint store,
// then ingests the fixed recovery tail.
func (s *session) checkpointAndTail() (checkpoint, error) {
	if err := s.wr.toBoundary(); err != nil {
		return checkpoint{}, err
	}
	store, err := ckpt.Open(s.inst.cfg.CheckpointDir, ckpt.WithMaxPayload(server.DefaultMaxCheckpointBytes))
	if err != nil {
		return checkpoint{}, err
	}
	srv := s.inst.m.Stream(server.DefaultStream)
	ck := checkpoint{pos: s.wr.pos}
	t := time.Now()
	var buf bytes.Buffer
	err = srv.WriteCheckpoint(&buf)
	if err == nil {
		_, err = store.Save(buf.Bytes())
	}
	ck.dur, ck.bytes = time.Since(t), buf.Len()
	if !s.wr.led.op(err) {
		return checkpoint{}, fmt.Errorf("writing the checkpoint: %w", err)
	}
	if err := s.wr.postStream(s.w.tailStrides * s.w.stride / s.w.batch); err != nil {
		return checkpoint{}, err
	}
	return ck, nil
}

// walMaxPayload bounds one WAL record as the server bounds its own
// (4 × the default ingest body plus 1 MiB).
const walMaxPayload = 4*server.DefaultMaxIngestBytes + 1<<20

// walRecords reads the records of the WAL in dir from stream position
// from on, up to n of them (n < 0: to the end of the log).
func walRecords(dir string, from uint64, n int) (pos []uint64, payloads [][]byte, err error) {
	r := ckpt.OpenWALReader(dir, from, walMaxPayload)
	defer r.Close()
	for n < 0 || len(pos) < n {
		p, b, err := r.Next()
		if errors.Is(err, ckpt.ErrWALWait) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if p >= from {
			pos, payloads = append(pos, p), append(payloads, b)
		}
	}
	return pos, payloads, nil
}

// recoveryConfig returns the configuration the recovered servers start
// from: the closed session's checkpoint store and a WAL directory holding
// only the records from the checkpoint on, copied from the session's log.
// The session's own log also holds the fill, warm-up and timed phase,
// whose length varies with ingest speed; a deployed server prunes that
// prefix once checkpoints cover it. With the copy, every recovery reads
// the same tail.
func (s *session) recoveryConfig(ck checkpoint) (server.MultiConfig, error) {
	cfg := s.inst.cfg
	cfg.WALDir = filepath.Join(s.dir, "recover-wal")
	pos, payloads, err := walRecords(s.inst.cfg.WALDir, uint64(ck.pos), -1)
	if err != nil {
		return cfg, fmt.Errorf("reading the recovery tail: %w", err)
	}
	if want := s.w.tailStrides * s.w.stride / s.w.batch; len(pos) != want || pos[0] != uint64(ck.pos) {
		return cfg, fmt.Errorf("the log holds %d records from position %d on, want %d starting there", len(pos), ck.pos, want)
	}
	wal, err := ckpt.OpenWAL(cfg.WALDir)
	if err != nil {
		return cfg, err
	}
	for i := range pos {
		if err = wal.Append(pos[i], payloads[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = wal.Sync()
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return cfg, err
}

func (s *session) fetch(path string) ([]byte, error) {
	status, _, b, err := s.wr.c.get(path)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if !s.wr.led.op(err) {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return b, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setUpRepeated sets up reps times and keeps the last session; the
// earlier ones are closed and their directories removed. It returns the
// set-up times. Besides giving setup_s a median, the earlier set-ups
// leave the process with the heap a server of this size needs, so the
// timed phase does not pay for first-touch page faults.
func setUpRepeated(o opts, reps int, name string, traced bool, led *ledger) (*session, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := setUp(o.w, o.seed, o.seconds, filepath.Join(o.dir, fmt.Sprintf("%s-%d", name, i)), traced)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == reps-1 {
			return s, setups, nil
		}
		s.close()
		led.add(s.wr.led)
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, nil, err
		}
	}
}

// runEndToEnd is the untraced run: every end-to-end metric.
func runEndToEnd(o opts, led *ledger) (map[string]metric, error) {
	st := newStages()
	s, setups, err := setUpRepeated(o, setupReps, "setup", false, led)
	if err != nil {
		return nil, err
	}
	st.mark("set-up")
	defer func() { led.add(s.wr.led); led.add(s.rd.led) }()
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	timed(s.wr, s.rd, s.ph, o.seconds)
	heap := float64(liveHeap()-s.heapBase) / (1 << 20)
	st.mark("timed")
	if s.wr.led.failed > 0 {
		s.close()
		return nil, fmt.Errorf("timed phase: %s", s.wr.led.errs[0])
	}
	ck, err := s.checkpointAndTail()
	if err != nil {
		s.close()
		return nil, err
	}
	live, err := s.views()
	s.close()
	var rcfg server.MultiConfig
	if err == nil {
		rcfg, err = s.recoveryConfig(ck)
	}
	if !led.op(err) {
		return nil, err
	}
	st.mark("checkpoint and tail")
	defer st.print()
	defer st.mark("gate and recovery")
	recovers, _, err := recoverAll(s, live, led, func() (http.Handler, error) {
		m, err := server.NewMulti(rcfg)
		if err != nil {
			return nil, err
		}
		return m.Handler(), nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: set-ups %.3f s, recoveries %.3f s\n", setups, recovers)
	return endToEndMetrics(o, s.ph, median(setups), median(recovers), heap)
}

// recoverAll times recoverReps recoveries of the closed session's
// checkpoint and log tail, checks them against the live view and runs the
// gate. open builds one recovered server and returns its handler. It
// returns the recovery times and how many bodies of the recovered server
// differ in bytes from the live ones (checkRecovered).
func recoverAll(s *session, live views, led *ledger, open func() (http.Handler, error)) (secs []float64, deviations int, err error) {
	liveState, err := loadState(live.checkpoint)
	if !led.op(err) {
		return nil, 0, err
	}
	led.op(gate(s.w, s.in, s.wr.pos, liveState))
	var first views
	for r := 0; r < recoverReps; r++ {
		runtime.GC()
		t := time.Now()
		h, err := open()
		d := time.Since(t)
		if !led.op(err) {
			return nil, 0, fmt.Errorf("recovering: %w", err)
		}
		secs = append(secs, d.Seconds())
		got := views{stats: get(h, "/stats"), clusters: get(h, "/clusters")}
		if r == 0 {
			// The full comparison once; later repetitions must reproduce
			// the first byte for byte (recovery is deterministic).
			var note string
			deviations, note, err = checkRecovered(h, s.w, live, liveState)
			if led.op(err) && deviations > 0 {
				fmt.Println("DEVIATION: recovered vs live:", note)
			}
			first = got
			continue
		}
		if !bytes.Equal(got.stats, first.stats) || !bytes.Equal(got.clusters, first.clusters) {
			led.op(fmt.Errorf("recovery %d served other /stats or /clusters bytes than recovery 0", r))
		}
	}
	return secs, deviations, nil
}

func endToEndMetrics(o opts, ph *phase, setup, recov, heapMB float64) (map[string]metric, error) {
	plain, err := summarize(ph.plain, ph.elapsed)
	if err != nil {
		return nil, fmt.Errorf("non-striding acks: %w", err)
	}
	stride, err := summarize(ph.stride, ph.elapsed)
	if err != nil {
		return nil, fmt.Errorf("striding acks: %w", err)
	}
	query, err := summarize(ph.query, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	fmt.Printf("acks without a stride: %v ms\n", plain)
	fmt.Printf("acks with a stride:    %v ms\n", stride)
	fmt.Printf("queries:               %v ms\n", query)
	fmt.Printf("timed phase: %d points in %d POSTs over %.3f s", ph.acked, ph.bodies, ph.elapsed.Seconds())
	if ph.exhausted {
		fmt.Printf(" (input exhausted before %d s)", o.seconds)
	}
	fmt.Println()
	return map[string]metric{
		"ingest_pts_s":       {float64(ph.acked) / ph.elapsed.Seconds(), "1/s"},
		"ack_p50_ms":         {plain.P50, "ms"},
		"ack_tail_ms":        {plain.Tail, "ms"},
		"stride_ack_p50_ms":  {stride.P50, "ms"},
		"stride_ack_tail_ms": {stride.Tail, "ms"},
		"query_p50_ms":       {query.P50, "ms"},
		"query_tail_ms":      {query.Tail, "ms"},
		"recover_s":          {recov, "s"},
		"heap_mb":            {heapMB, "MB"},
		"cpu_s_per_kpt":      {ph.cpu.Seconds() / (float64(ph.acked) / 1000), "s"},
		"setup_s":            {setup, "s"},
	}, nil
}

func sampleMS(as []sample) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.ms
	}
	return out
}

// stages times the parts of a run for a line on standard error, so a
// reader can see where a run's wall time goes.
type stages struct {
	t     time.Time
	parts []string
}

func newStages() *stages { return &stages{t: time.Now()} }

func (st *stages) mark(name string) {
	now := time.Now()
	st.parts = append(st.parts, fmt.Sprintf("%s %.1fs", name, now.Sub(st.t).Seconds()))
	st.t = now
}

func (st *stages) print() {
	fmt.Fprintln(os.Stderr, "servebench: stages:", strings.Join(st.parts, ", "))
}
