package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"disc/internal/server"
)

// benchClient is the X-Disc-Client name the writer sends its batches under.
const benchClient = "servebench"

// multiConfig is the serving configuration an operator would deploy:
// default (MS-BFS) connectivity, a WAL and a checkpoint store on disk.
// The checkpoint scheduler is never started: the benchmark writes its one
// checkpoint itself, so no timer-driven work lands in the timed phase.
func multiConfig(w workload, dir string, traced bool) server.MultiConfig {
	cfg := server.MultiConfig{
		Default: server.Config{
			Cluster: w.cfg,
			Window:  w.window,
			Stride:  w.stride,
		},
		CheckpointDir: filepath.Join(dir, "ckpt"),
		WALDir:        filepath.Join(dir, "wal"),
	}
	if traced {
		// Large enough to keep every timed-phase ingest trace.
		cfg.Default.Tracing = &server.TraceConfig{Recent: 1 << 15}
	}
	return cfg
}

// instance is one server.Multi served over loopback HTTP.
type instance struct {
	cfg  server.MultiConfig
	m    *server.Multi
	hs   *http.Server
	done chan struct{}
	base string
}

func startInstance(cfg server.MultiConfig) (*instance, error) {
	m, err := server.NewMulti(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	in := &instance{cfg: cfg, m: m, hs: &http.Server{Handler: m.Handler()}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(in.done)
		in.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return in, nil
}

// close stops the listener and every connection, waits for Serve to
// return and drops the server, so its memory is not live while the run
// goes on (recovery, the gate).
func (in *instance) close() {
	in.hs.Close()
	<-in.done
	in.m, in.hs = nil, nil
}

// client is one keep-alive HTTP connection to the server.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches path and returns its status, headers and whole body.
func (c *client) get(path string) (int, http.Header, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

type ingestAck struct {
	Accepted int    `json:"accepted"`
	Strides  uint64 `json:"strides"`
	Window   int    `json:"window"`
}

// ledger counts attempted and failed operations and keeps the first few
// failures for the report. One ledger per goroutine.
type ledger struct {
	attempted, failed int
	errs              []string
}

func (l *ledger) op(err error) bool {
	l.attempted++
	if err == nil {
		return true
	}
	l.failed++
	if len(l.errs) < 8 {
		l.errs = append(l.errs, err.Error())
	}
	return false
}

func (l *ledger) add(o ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 8 {
			l.errs = append(l.errs, e)
		}
	}
}

// writer is the single closed-loop ingest client of a stream.
type writer struct {
	w   workload
	c   *client
	in  *inputs
	led ledger

	next int    // index of the next inputs.stream body
	seq  uint64 // last X-Disc-Seq sent
	pos  int    // points acknowledged
	cls  ackClassifier
	// strides is the stride count of the latest ack; the reader reads it
	// concurrently to know which view every later GET must at least show.
	strides atomic.Uint64
}

// post sends one body and checks its ack. It returns the latency, whether
// the ack completed a stride and the server's trace id (when tracing).
func (wr *writer) post(b body) (ms float64, advanced bool, traceID string, err error) {
	wr.seq++
	req, err := http.NewRequest(http.MethodPost, wr.c.base+"/ingest", bytes.NewReader(b.json))
	if err != nil {
		return 0, false, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Disc-Client", benchClient)
	req.Header.Set("X-Disc-Seq", strconv.FormatUint(wr.seq, 10))
	t0 := time.Now()
	resp, err := wr.c.hc.Do(req)
	if err != nil {
		return 0, false, "", fmt.Errorf("ingest at %d: %w", b.start, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms = msSince(t0)
	if err != nil {
		return ms, false, "", fmt.Errorf("ingest at %d: reading ack: %w", b.start, err)
	}
	if resp.StatusCode != http.StatusOK {
		return ms, false, "", fmt.Errorf("ingest at %d: status %d: %.200s", b.start, resp.StatusCode, raw)
	}
	var ack ingestAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return ms, false, "", fmt.Errorf("ingest at %d: decoding ack: %w", b.start, err)
	}
	if b.start != wr.pos {
		return ms, false, "", fmt.Errorf("ingest at %d: writer is at position %d", b.start, wr.pos)
	}
	if ack.Accepted != b.n {
		return ms, false, "", fmt.Errorf("ingest at %d: accepted %d of %d points", b.start, ack.Accepted, b.n)
	}
	advanced, err = wr.cls.classify(ack.Strides)
	if err != nil {
		return ms, false, "", fmt.Errorf("ingest at %d: %w", b.start, err)
	}
	wr.pos += b.n
	if want := wr.wantStrides(); ack.Strides != want {
		return ms, advanced, "", fmt.Errorf("ingest at %d: ack reports %d strides, stream position %d implies %d",
			b.start, ack.Strides, wr.pos, want)
	}
	wr.strides.Store(ack.Strides)
	return ms, advanced, resp.Header.Get("X-Disc-Trace"), nil
}

// wantStrides is the stride count a count-based window must report once
// wr.pos points have arrived: one for the initial fill, then one per
// completed stride.
func (wr *writer) wantStrides() uint64 {
	if wr.pos < wr.w.window {
		return 0
	}
	return uint64(1 + (wr.pos-wr.w.window)/wr.w.stride)
}

// postAll sends bodies in order, stopping at the first failure.
func (wr *writer) postAll(bs []body) error {
	for _, b := range bs {
		if _, _, _, err := wr.post(b); !wr.led.op(err) {
			return err
		}
	}
	return nil
}

// postStream sends the next n stream bodies.
func (wr *writer) postStream(n int) error {
	if wr.next+n > len(wr.in.stream) {
		return fmt.Errorf("input exhausted: %d bodies wanted, %d left", n, len(wr.in.stream)-wr.next)
	}
	bs := wr.in.stream[wr.next : wr.next+n]
	wr.next += n
	return wr.postAll(bs)
}

// toBoundary sends stream bodies until the position is on a stride
// boundary (no pending points).
func (wr *writer) toBoundary() error {
	for (wr.pos-wr.w.window)%wr.w.stride != 0 {
		if err := wr.postStream(1); err != nil {
			return err
		}
	}
	return nil
}

// phase is what the timed phase measured.
type phase struct {
	plain, stride []sample // acks by whether they completed a stride
	query, late   []sample // reader latency from due time, and lateness
	acked         int      // points acknowledged
	firstBody     int      // index of the first timed stream body
	bodies        int      // bodies acknowledged
	elapsed       time.Duration
	cpu           time.Duration
	exhausted     bool
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newPhase pre-sizes the sample buffers so that growing them does not
// show in the heap measurement.
func newPhase(w workload, in *inputs, seconds int) *phase {
	n := len(in.stream)
	q := int(w.readHz*float64(seconds)) + 64
	return &phase{plain: make([]sample, 0, n), stride: make([]sample, 0, n/(w.stride/w.batch)+8),
		query: make([]sample, 0, q), late: make([]sample, 0, q)}
}

// timed runs the closed-loop writer and the open-loop reader for the
// given duration. The writer keeps enough input back to reach the next
// stride boundary and run the recovery tail afterwards.
func timed(wr *writer, rd *reader, ph *phase, seconds int) {
	perStride := wr.w.stride / wr.w.batch
	limit := len(wr.in.stream) - perStride*(wr.w.tailStrides+1)
	ph.firstBody = wr.next
	// Start every timed phase right after a collection. On covid-100k the
	// live heap is over 500 MB and a cycle comes every ten-odd seconds, so
	// without this a run holds one cycle or none depending on where set-up
	// left the collector, and its latencies move with that.
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	cpu0 := cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(ph, start, deadline)
	}()
	for time.Now().Before(deadline) {
		if wr.next >= limit {
			ph.exhausted = true
			break
		}
		b := wr.in.stream[wr.next]
		wr.next++
		ms, advanced, id, err := wr.post(b)
		if !wr.led.op(err) {
			break
		}
		ph.acked += b.n
		ph.bodies++
		if advanced {
			ph.stride = append(ph.stride, sample{ms, time.Since(start), id})
		} else {
			ph.plain = append(ph.plain, sample{ms, time.Since(start), id})
		}
	}
	ph.elapsed = time.Since(start)
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
}

// reader is the open-loop query client: GETs on a fixed schedule, each
// timed from when it was due, so a stall delays and is charged to the
// requests queued behind it.
type reader struct {
	w   workload
	c   *client
	wr  *writer
	rng *rand.Rand
	led ledger
}

func (rd *reader) run(ph *phase, start, deadline time.Time) {
	period := time.Duration(float64(time.Second) / rd.w.readHz)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := rd.query(k)
		if rd.led.op(err) {
			at := due.Sub(start)
			ph.query = append(ph.query, sample{ms: msSince(due), at: at})
			ph.late = append(ph.late, sample{ms: ms(sent.Sub(due)), at: at})
		}
	}
}

// query sends the k-th request of the mix and checks it: /clusters,
// /points/{id}, /stats, /points/{id}, repeating.
func (rd *reader) query(k int) error {
	minStride := rd.wr.strides.Load()
	var path string
	var id int64
	switch k % 4 {
	case 0:
		path = "/clusters"
	case 2:
		path = "/stats"
	default:
		// An id a quarter window or less below the last acknowledged
		// stride boundary: resident in that view and in any view the
		// writer can publish while this request is in flight.
		boundary := int64(rd.w.window) + int64(minStride-1)*int64(rd.w.stride)
		id = boundary - 1 - rd.rng.Int63n(int64(rd.w.window/4))
		path = "/points/" + strconv.FormatInt(id, 10)
	}
	status, hdr, b, err := rd.c.get(path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, status, b)
	}
	hs, err := strconv.ParseUint(hdr.Get("X-Disc-Stride"), 10, 64)
	if err != nil {
		return fmt.Errorf("GET %s: bad X-Disc-Stride %q", path, hdr.Get("X-Disc-Stride"))
	}
	if hs < minStride {
		return fmt.Errorf("GET %s: view at stride %d is older than the acknowledged stride %d", path, hs, minStride)
	}
	return checkBody(path, hs, id, b)
}

// checkBody verifies that a GET body agrees with its X-Disc-Stride header
// (or, for a point, names the requested id).
func checkBody(path string, headerStride uint64, id int64, b []byte) error {
	var bodyStride uint64
	switch path {
	case "/clusters":
		var v struct {
			Strides *uint64 `json:"strides"`
		}
		if err := json.Unmarshal(b, &v); err != nil || v.Strides == nil {
			return fmt.Errorf("GET %s: body without strides: %v", path, err)
		}
		bodyStride = *v.Strides
	case "/stats":
		var v struct {
			Stats *struct{ Strides uint64 } `json:"stats"`
		}
		if err := json.Unmarshal(b, &v); err != nil || v.Stats == nil {
			return fmt.Errorf("GET %s: body without stats: %v", path, err)
		}
		bodyStride = v.Stats.Strides
	default:
		var v struct {
			ID    int64  `json:"id"`
			Label string `json:"label"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if v.ID != id || v.Label == "" {
			return fmt.Errorf("GET %s: body names id %d label %q", path, v.ID, v.Label)
		}
		return nil
	}
	if bodyStride != headerStride {
		return fmt.Errorf("GET %s: X-Disc-Stride %d but body says %d", path, headerStride, bodyStride)
	}
	return nil
}
