package main

import (
	"fmt"
	"sort"
)

// serverMeans are the server-side layer times of the traced run, means
// per traced ingest request (publishPerStride: per request that
// published).
type serverMeans struct {
	decode, validate, self, http, publishPerStride float64
	matched                                        int
}

func layerMeans(ph *phase, spans map[string]reqSpans) serverMeans {
	var m serverMeans
	var publishes int
	for _, class := range [][]sample{ph.plain, ph.stride} {
		for _, a := range class {
			sp, ok := spans[a.traceID]
			if !ok {
				continue
			}
			m.matched++
			m.decode += sp.decode
			m.validate += sp.validate
			m.self += sp.root - sp.decode - sp.validate - sp.advance - sp.publish
			m.http += a.ms - sp.root
			if sp.publish > 0 {
				m.publishPerStride += sp.publish
				publishes++
			}
		}
	}
	if m.matched > 0 {
		n := float64(m.matched)
		m.decode, m.validate, m.self, m.http = m.decode/n, m.validate/n, m.self/n, m.http/n
	}
	if publishes > 0 {
		m.publishPerStride /= float64(publishes)
	}
	return m
}

// row is one line of a layer breakdown: a layer's mean self time per
// request of the class, and how many of those requests it ran in.
type row struct {
	layer string
	ms    float64
	count int
	sub   bool // part of the row above it
}

// breakdown decomposes the mean end-to-end latency of one ack class into
// layer self times taken from each request's own spans; the top-level
// rows add up to the end-to-end mean exactly. The ingest span's self time
// (server.ingest_self) covers the WAL append and fsync, the slider push
// and encoding the ack, which have no spans of their own; its sub-rows
// estimate the first two (the append and push times are the layer
// replay's means per batch of the class, the fsync time is the server's
// own mean over all batches from /metrics) and "other" is the rest, which
// goes negative when the estimates exceed what the span left.
func breakdown(class []sample, striding bool, spans map[string]reqSpans, lay *layers, syncMS float64) (rows []row, e2e float64, n int) {
	push := mean(lay.pushPlainUS) / 1000
	if striding {
		push = mean(lay.pushStrideUS) / 1000
	}
	wal := mean(lay.appendMS) + syncMS
	sum := map[string]float64{}
	cnt := map[string]int{}
	add := func(layer string, v float64, ran bool) {
		sum[layer] += v
		if ran {
			cnt[layer]++
		}
	}
	for _, a := range class {
		sp, ok := spans[a.traceID]
		if !ok {
			continue
		}
		n++
		e2e += a.ms
		self := sp.root - sp.decode - sp.validate - sp.advance - sp.publish
		add("http", a.ms-sp.root, true)
		add("server.decode", sp.decode, true)
		add("server.validate", sp.validate, true)
		add("server.ingest_self", self, true)
		add("ckpt.wal", wal, true)
		add("window.push", push, true)
		add("other", self-wal-push, true)
		add("core.advance", sp.advance, sp.advance > 0)
		for _, ph := range []struct{ span, layer string }{
			{"collect", "core.collect"}, {"cluster.excores", "core.excore"},
			{"connectivity", "core.connectivity"}, {"cluster.neocores", "core.neocore"},
			{"finalize", "core.finalize"},
		} {
			add(ph.layer, sp.phase[ph.span], sp.phase[ph.span] > 0)
		}
		add("server.publish", sp.publish, sp.publish > 0)
	}
	if n == 0 {
		return nil, 0, 0
	}
	for _, r := range []row{
		{layer: "http"}, {layer: "server.decode"}, {layer: "server.validate"},
		{layer: "server.ingest_self"}, {layer: "ckpt.wal", sub: true}, {layer: "window.push", sub: true}, {layer: "other", sub: true},
		{layer: "core.advance"}, {layer: "core.collect", sub: true}, {layer: "core.excore", sub: true},
		{layer: "core.connectivity", sub: true}, {layer: "core.neocore", sub: true}, {layer: "core.finalize", sub: true},
		{layer: "server.publish"},
	} {
		r.ms, r.count = sum[r.layer]/float64(n), cnt[r.layer]
		rows = append(rows, r)
	}
	return rows, e2e / float64(n), n
}

// requestPath are the top-level layers every ingest request pays whether
// or not it completes a stride, and the parts named when it dominates.
var (
	requestPath      = map[string]bool{"http": true, "server.decode": true, "server.validate": true, "server.ingest_self": true}
	requestPathParts = map[string]bool{"http": true, "server.decode": true, "server.validate": true,
		"ckpt.wal": true, "window.push": true, "other": true}
)

// report prints the traced run's layer breakdowns, checks the workload's
// predicted dominant layer, and prints the tracing overhead.
func report(w workload, ref, traced *phase, spans map[string]reqSpans, lay *layers, syncMS float64) {
	classes := []struct {
		name    string
		key     string
		samples []sample
	}{{"acks without a stride", "plain", traced.plain}, {"acks with a stride", "stride", traced.stride}}
	for _, c := range classes {
		rows, e2e, n := breakdown(c.samples, c.key == "stride", spans, lay, syncMS)
		fmt.Printf("\nlayer breakdown, %s (%s): %d traced requests, mean %.3f ms end to end\n", c.name, w.name, n, e2e)
		if n == 0 {
			continue
		}
		fmt.Printf("  %-22s %10s %7s %7s\n", "layer", "self ms", "count", "share")
		for _, r := range rows {
			name := r.layer
			if r.sub {
				name = "  " + name
			}
			fmt.Printf("  %-22s %10.3f %7d %6.1f%%\n", name, r.ms, r.count, 100*r.ms/e2e)
		}
		if c.key == w.predictAcks {
			fmt.Println(prediction(w, rows, e2e))
		}
	}
	fmt.Println()
	overhead(ref, traced)
}

// prediction states whether the workload's predicted dominant layer holds
// for the rows of its ack class.
func prediction(w workload, rows []row, e2e float64) string {
	if w.predicted == "request path" {
		var req float64
		var part row
		for _, r := range rows {
			if requestPath[r.layer] {
				req += r.ms
			}
			if requestPathParts[r.layer] && r.ms > part.ms {
				part = r
			}
		}
		verdict := "holds"
		if req <= e2e/2 {
			verdict = "DOES NOT HOLD"
		}
		return fmt.Sprintf("prediction: the request path dominates %s acks: %s (request path %.1f%%, largest part %s %.1f%%)",
			w.predictAcks, verdict, 100*req/e2e, part.layer, 100*part.ms/e2e)
	}
	var top []row
	for _, r := range rows {
		if !r.sub {
			top = append(top, r)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].ms > top[j].ms })
	share := func(layer string) float64 {
		for _, r := range top {
			if r.layer == layer {
				return 100 * r.ms / e2e
			}
		}
		return 0
	}
	if top[0].layer == w.predicted {
		return fmt.Sprintf("prediction: %s dominates %s acks: holds (%.1f%%, next %s %.1f%%)",
			w.predicted, w.predictAcks, share(w.predicted), top[1].layer, share(top[1].layer))
	}
	return fmt.Sprintf("prediction: %s dominates %s acks: DOES NOT HOLD — %s is larger (%.1f%% against %.1f%%)",
		w.predicted, w.predictAcks, top[0].layer, share(top[0].layer), share(w.predicted))
}

// overhead prints the traced run's end-to-end numbers against the
// untraced reference on the same inputs.
func overhead(ref, traced *phase) {
	pick := func(ph *phase) (float64, float64, float64) {
		p := sampleMS(ph.plain)
		s := sampleMS(ph.stride)
		return float64(ph.acked) / ph.elapsed.Seconds(), median(p), median(s)
	}
	r1, r2, r3 := pick(ref)
	t1, t2, t3 := pick(traced)
	pct := func(a, b float64) float64 { return 100 * (b - a) / a }
	fmt.Printf("tracing overhead (traced vs untraced): ingest_pts_s %.1f vs %.1f (%+.1f%%), ack_p50_ms %.3f vs %.3f (%+.1f%%), stride_ack_p50_ms %.3f vs %.3f (%+.1f%%)\n",
		t1, r1, pct(r1, t1), t2, r2, pct(r2, t2), t3, r3, pct(r3, t3))
}
