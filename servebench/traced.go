package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"disc/internal/ckpt"
	"disc/internal/core"
	"disc/internal/model"
	"disc/internal/server"
	"disc/internal/window"
)

// runTraced is the per-layer run. It repeats the timed phase three ways
// on the same inputs:
//   - untraced, as the reference for the tracing overhead;
//   - with the server's span recorder on, for the decode / validate /
//     advance / publish split of every ingest request, plus one /metrics
//     scrape before and one after for the WAL and query counters;
//   - as a layer replay: the batches the traced run acknowledged, pushed
//     from the same starting state straight through window.CountSlider,
//     core.Engine.Advance (with a StrideRecord observer),
//     Engine.SnapshotInto/ClustersInto and ckpt.WAL.Append/Sync, each call
//     timed by the benchmark.
//
// The checkpoint write and a layer-by-layer recovery (checkpoint store,
// Server.ReadCheckpoint, Server.RecoverWAL) are timed on the traced run.
func runTraced(o opts, led *ledger) (map[string]metric, error) {
	w := o.w
	ref, err := untracedPhase(o, led)
	if err != nil {
		return nil, err
	}

	s, _, err := setUpRepeated(o, 1, "traced", true, led)
	if err != nil {
		return nil, err
	}
	defer func() { led.add(s.wr.led); led.add(s.rd.led) }()
	var startCk, prom0, prom1, traces []byte
	err = s.warmUp()
	if err == nil {
		startCk, err = s.fetch("/checkpoint")
	}
	if err == nil {
		prom0, err = s.fetch("/metrics")
	}
	if err == nil {
		timed(s.wr, s.rd, s.ph, o.seconds)
		prom1, err = s.fetch("/metrics")
	}
	if err == nil {
		traces, err = s.fetch("/debug/traces")
	}
	var ck checkpoint
	if err == nil {
		ck, err = s.checkpointAndTail()
	}
	var live views
	if err == nil {
		live, err = s.views()
	}
	s.close()
	var rcfg server.MultiConfig
	if err == nil {
		rcfg, err = s.recoveryConfig(ck)
	}
	if err != nil {
		return nil, err
	}

	var loads, replays []float64
	cfg := rcfg.Default
	cfg.Tracing = nil
	_, deviations, err := recoverAll(s, live, led, func() (http.Handler, error) {
		t0 := time.Now()
		store, err := ckpt.Open(rcfg.CheckpointDir, ckpt.WithMaxPayload(server.DefaultMaxCheckpointBytes))
		if err != nil {
			return nil, err
		}
		payload, _, err := store.Recover()
		if err != nil {
			return nil, err
		}
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := srv.ReadCheckpoint(bytes.NewReader(payload)); err != nil {
			return nil, err
		}
		// Replay as NewMulti does it: open (and repair) the log, then
		// replay it.
		t1 := time.Now()
		wal, err := ckpt.OpenWAL(rcfg.WALDir, ckpt.WithWALMaxPayload(walMaxPayload))
		if err != nil {
			return nil, err
		}
		defer wal.Close()
		if _, err := srv.RecoverWAL(rcfg.WALDir, nil); err != nil {
			return nil, err
		}
		loads = append(loads, t1.Sub(t0).Seconds())
		replays = append(replays, time.Since(t1).Seconds())
		return srv.Handler(), nil
	})
	if err != nil {
		return nil, err
	}

	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(startCk)).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding the timed phase's starting checkpoint: %w", err)
	}
	lay, err := replayLayers(w, env, s.in, s.ph.firstBody, s.ph.bodies, s.inst.cfg.WALDir, filepath.Join(o.dir, "replay-wal"))
	if err != nil {
		return nil, err
	}
	spans, err := parseTraces(traces)
	if err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return promSum(prom1, name) - promSum(prom0, name) }
	// The server's own fsync timings of the traced run, not the replay's:
	// they are what its acks waited for.
	syncMS := 1000 * delta("disc_wal_sync_duration_seconds_sum") / delta("disc_wal_sync_duration_seconds_count")
	tracedPhase := s.ph
	report(w, ref, tracedPhase, spans, lay, syncMS)

	srvAll := layerMeans(tracedPhase, spans)
	late, err := summarize(tracedPhase.late, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, fmt.Errorf("reader lateness: %w", err)
	}
	var rec strideMeans
	for _, r := range lay.recs {
		rec.add(r)
	}
	n := float64(len(lay.recs))
	return map[string]metric{
		"core.advance_ms":              {mean(lay.advanceMS), "ms"},
		"core.collect_ms":              {ms(rec.collect) / n, "ms"},
		"core.excore_ms":               {ms(rec.excore) / n, "ms"},
		"core.neocore_ms":              {ms(rec.neocore) / n, "ms"},
		"core.finalize_ms":             {ms(rec.finalize) / n, "ms"},
		"core.connectivity_ms":         {ms(rec.conn) / n, "ms"},
		"core.range_searches":          {float64(rec.searches) / n, "count"},
		"core.node_accesses":           {float64(rec.nodes) / n, "count"},
		"core.allocs_per_stride":       {mean(lay.allocs), "count"},
		"core.snapshot_ms":             {mean(lay.snapshotMS), "ms"},
		"core.heap_mb":                 {lay.heapMB, "MB"},
		"server.publish_ms":            {srvAll.publishPerStride, "ms"},
		"server.decode_ms":             {srvAll.decode, "ms"},
		"server.validate_ms":           {srvAll.validate, "ms"},
		"server.ingest_self_ms":        {srvAll.self, "ms"},
		"server.query_ms":              {1000 * delta("disc_query_duration_seconds_sum") / delta("disc_query_duration_seconds_count"), "ms"},
		"http.overhead_ms":             {srvAll.http, "ms"},
		"window.push_us":               {mean(lay.pushUS), "us"},
		"ckpt.wal_append_ms":           {mean(lay.appendMS), "ms"},
		"ckpt.wal_sync_ms":             {syncMS, "ms"},
		"ckpt.wal_bytes_per_pt":        {delta("disc_wal_append_bytes_total") / delta("disc_ingested_points_total"), "B"},
		"ckpt.checkpoint_save_ms":      {ms(ck.dur), "ms"},
		"ckpt.checkpoint_bytes":        {float64(ck.bytes), "B"},
		"ckpt.recover_load_s":          {median(loads), "s"},
		"ckpt.recover_replay_s":        {median(replays), "s"},
		"ckpt.recover_byte_deviations": {float64(deviations), "count"},
		"gen.lateness_ms":              {late.Tail, "ms"},
	}, nil
}

// untracedPhase runs the timed phase once without tracing and returns
// it, the reference the tracing overhead is taken against. It sets up
// twice, so that the reference and the traced run after it both start on
// a warm heap.
func untracedPhase(o opts, led *ledger) (*phase, error) {
	s, _, err := setUpRepeated(o, 2, "untraced", false, led)
	if err != nil {
		return nil, err
	}
	err = s.warmUp()
	if err == nil {
		timed(s.wr, s.rd, s.ph, o.seconds)
	}
	s.close()
	led.add(s.wr.led)
	led.add(s.rd.led)
	if err != nil {
		return nil, err
	}
	return s.ph, os.RemoveAll(s.dir)
}

// layers is what the layer replay timed, per stride or per batch.
type layers struct {
	recs                  []core.StrideRecord
	advanceMS, snapshotMS []float64 // per stride
	allocs                []float64 // heap objects allocated per Advance
	appendMS              []float64 // per batch
	// Push time per batch, split by whether the batch completed a stride
	// (which copies the window's departures and arrivals).
	pushUS, pushPlainUS, pushStrideUS []float64
	heapMB                            float64 // engine, slider and snapshot after the replay
}

// replayLayers pushes the batches in[first:first+n] from the state in env
// through the layers the ingest handler calls, in its order: WAL append
// and sync, slider push, and per completed stride Advance then the
// snapshot and census a publish reads. The WAL appends write the records
// the server logged for those batches, read back from srvWAL, into a
// fresh log in walDir.
func replayLayers(w workload, env envelope, in *inputs, first, n int, srvWAL, walDir string) (*layers, error) {
	batches := in.stream[first : first+n]
	pos, records, err := walRecords(srvWAL, uint64(batches[0].start), n)
	if err != nil {
		return nil, fmt.Errorf("replay: reading the server's log: %w", err)
	}
	if len(pos) != n {
		return nil, fmt.Errorf("replay: the server logged %d of the %d batches", len(pos), n)
	}
	l := &layers{}
	base := liveHeap()
	eng, err := core.LoadEngine(bytes.NewReader(env.Engine),
		core.WithObserver(core.ObserverFunc(func(r core.StrideRecord) { l.recs = append(l.recs, r) })))
	if err != nil {
		return nil, fmt.Errorf("replay: loading engine: %w", err)
	}
	sl, err := window.NewCountSlider(w.window, w.stride)
	if err != nil {
		return nil, err
	}
	if err := sl.RestoreWindow(env.Window); err != nil {
		return nil, fmt.Errorf("replay: restoring window: %w", err)
	}
	wal, err := ckpt.OpenWAL(walDir)
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	snap := make(map[int64]model.Assignment, w.window)
	var census []core.ClusterInfo
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	readAllocs := func() uint64 {
		rtmetrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	for i, b := range batches {
		if pos[i] != uint64(b.start) {
			return nil, fmt.Errorf("replay: log record %d at position %d, batch at %d", i, pos[i], b.start)
		}
		pts := in.points[b.start : b.start+b.n]
		t0 := time.Now()
		if err := wal.Append(pos[i], records[i]); err != nil {
			return nil, err
		}
		l.appendMS = append(l.appendMS, msSince(t0))
		// Synced as the handler does, so the replay's disk and page cache
		// behave like the server's; the fsync time reported is the
		// server's own (disc_wal_sync_duration_seconds).
		if err := wal.Sync(); err != nil {
			return nil, err
		}

		var inner time.Duration
		strided := false
		tp := time.Now()
		for _, p := range pts {
			st := sl.Push(p)
			if st == nil {
				continue
			}
			strided = true
			ta := time.Now()
			a0 := readAllocs()
			eng.Advance(st.In, st.Out)
			a1 := readAllocs()
			tb := time.Now()
			snap = eng.SnapshotInto(snap)
			census, _ = eng.ClustersInto(census)
			tc := time.Now()
			l.advanceMS = append(l.advanceMS, ms(tb.Sub(ta)))
			l.snapshotMS = append(l.snapshotMS, ms(tc.Sub(tb)))
			l.allocs = append(l.allocs, float64(a1-a0))
			inner += tc.Sub(ta)
		}
		us := float64((time.Since(tp) - inner).Nanoseconds()) / 1e3
		l.pushUS = append(l.pushUS, us)
		if strided {
			l.pushStrideUS = append(l.pushStrideUS, us)
		} else {
			l.pushPlainUS = append(l.pushPlainUS, us)
		}
	}
	if len(l.recs) == 0 {
		return nil, fmt.Errorf("replay: %d batches completed no stride", n)
	}
	l.heapMB = float64(liveHeap()-base) / (1 << 20)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(sl)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(census)
	return l, nil
}

// strideMeans sums the StrideRecord fields the per-layer metrics report.
type strideMeans struct {
	collect, excore, neocore, finalize, conn time.Duration
	searches, nodes                          int64
}

func (m *strideMeans) add(r core.StrideRecord) {
	m.collect += r.Collect
	m.excore += r.ExCorePhase
	m.neocore += r.NeoCorePhase
	m.finalize += r.Finalize
	m.conn += r.Connectivity
	m.searches += r.RangeSearches
	m.nodes += r.NodeAccesses
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reqSpans is one ingest request's span tree reduced to layer times in
// milliseconds: the root, its direct children, and the engine phases
// under the advance span.
type reqSpans struct {
	root, decode, validate, advance, publish float64
	phase                                    map[string]float64
}

// parseTraces reads a GET /debug/traces body into per-trace layer times.
func parseTraces(b []byte) (map[string]reqSpans, error) {
	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Spans   []struct {
				ID         string `json:"id"`
				Parent     string `json:"parent"`
				Name       string `json:"name"`
				DurationUS int64  `json:"duration_us"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	out := make(map[string]reqSpans, len(doc.Traces))
	for _, t := range doc.Traces {
		name := map[string]string{}
		root := ""
		for _, sp := range t.Spans {
			name[sp.ID] = sp.Name
			if sp.Parent == "" && sp.Name == "ingest" {
				root = sp.ID
			}
		}
		if root == "" {
			continue
		}
		r := reqSpans{phase: map[string]float64{}}
		for _, sp := range t.Spans {
			d := float64(sp.DurationUS) / 1e3
			switch {
			case sp.ID == root:
				r.root = d
			case sp.Parent == root:
				switch sp.Name {
				case "decode":
					r.decode += d
				case "validate":
					r.validate += d
				case "advance":
					r.advance += d
				case "publish":
					r.publish += d
				}
			case name[sp.Parent] == "advance" || sp.Name == "connectivity":
				r.phase[sp.Name] += d
			}
		}
		out[t.TraceID] = r
	}
	return out, nil
}

// promSum sums every sample of one metric name in a Prometheus text
// exposition (all label sets).
func promSum(text []byte, name string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.IndexAny(line, "{ ")
		if i < 0 || line[:i] != name {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
