package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"disc/internal/core"
	"disc/internal/dbscan"
	"disc/internal/metrics"
	"disc/internal/model"
)

// views are the bodies of the live server's last view, taken before it
// is closed, that a recovered server is compared against.
type views struct{ stats, clusters, checkpoint []byte }

func (s *session) views() (views, error) {
	var v views
	var err error
	if v.stats, err = s.fetch("/stats"); err != nil {
		return v, err
	}
	if v.clusters, err = s.fetch("/clusters"); err != nil {
		return v, err
	}
	v.checkpoint, err = s.fetch("/checkpoint")
	return v, err
}

// envelope is the part of the server's checkpoint the checks read; gob
// matches fields by name and skips the rest.
type envelope struct {
	Engine   []byte
	Window   []model.Point
	Ingested uint64
}

// state is a checkpoint decoded down to the engine's assignments.
type state struct {
	env    envelope
	assign map[int64]model.Assignment
}

func loadState(ck []byte) (state, error) {
	var st state
	if err := gob.NewDecoder(bytes.NewReader(ck)).Decode(&st.env); err != nil {
		return st, fmt.Errorf("decoding checkpoint: %w", err)
	}
	eng, err := core.LoadEngine(bytes.NewReader(st.env.Engine))
	if err != nil {
		return st, fmt.Errorf("loading engine from checkpoint: %w", err)
	}
	st.assign = eng.Snapshot()
	return st, nil
}

// gate is the correctness gate on the final window: the live checkpoint
// must hold exactly the last window of points the writer sent, and its
// engine must cluster them as DBSCAN does.
func gate(w workload, in *inputs, pos int, live state) error {
	if live.env.Ingested != uint64(pos) {
		return fmt.Errorf("gate: checkpoint at position %d, writer at %d", live.env.Ingested, pos)
	}
	want := in.points[pos-w.window : pos]
	if err := sameWindow(live.env.Window, want); err != nil {
		return fmt.Errorf("gate: checkpoint %w", err)
	}
	if err := metrics.SameClustering(live.assign, dbscan.Run(want, w.cfg), want, w.cfg); err != nil {
		return fmt.Errorf("gate: final window differs from DBSCAN: %w", err)
	}
	return nil
}

// checkRecovered compares a recovered server (its handler) against the
// live server's last view. A failure is a /stats body that differs in
// anything but the effort counters stats.RangeSearches and
// stats.NodeAccesses, a different window or stream position, or a
// clustering that metrics.SameClustering does not accept as the live one.
//
// A restored engine bulk-loads its R-tree, so the strides replayed after
// a checkpoint visit neighbours in another order than the live tree did.
// That moves the effort counters, border tie-breaks and cluster ids, and
// so the bytes of /stats and /clusters. deviations counts the bodies
// (of /stats and /clusters) whose bytes differ from the live ones, and
// note describes them (README.md).
func checkRecovered(h http.Handler, w workload, live views, liveState state) (deviations int, note string, err error) {
	stats, clusters, ck := get(h, "/stats"), get(h, "/clusters"), get(h, "/checkpoint")
	var notes []string
	if !bytes.Equal(stats, live.stats) {
		d, err := effortOnlyDiff(stats, live.stats)
		if err != nil {
			return 0, "", fmt.Errorf("recovered /stats: %w", err)
		}
		deviations++
		notes = append(notes, "/stats "+d)
	}
	rec, err := loadState(ck)
	if err != nil {
		return 0, "", fmt.Errorf("recovered: %w", err)
	}
	if rec.env.Ingested != liveState.env.Ingested {
		return 0, "", fmt.Errorf("recovered at position %d, live at %d", rec.env.Ingested, liveState.env.Ingested)
	}
	if err := sameWindow(rec.env.Window, liveState.env.Window); err != nil {
		return 0, "", fmt.Errorf("recovered %w", err)
	}
	if err := metrics.SameClustering(rec.assign, liveState.assign, liveState.env.Window, w.cfg); err != nil {
		return 0, "", fmt.Errorf("recovered clustering: %w", err)
	}
	if !bytes.Equal(clusters, live.clusters) {
		moved := 0
		for id, a := range liveState.assign {
			if rec.assign[id] != a {
				moved++
			}
		}
		deviations++
		notes = append(notes, fmt.Sprintf("/clusters bytes differ (%d points in another cluster id)", moved))
	}
	return deviations, strings.Join(notes, "; "), nil
}

// sameWindow checks that got holds exactly the points of want, in order.
func sameWindow(got, want []model.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("window holds %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("window slot %d holds %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// get serves one GET from an in-process handler; a non-200 answer comes
// back as its status line, which no check accepts.
func get(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return []byte(fmt.Sprintf("status %d", rec.Code))
	}
	return rec.Body.Bytes()
}

// effortOnlyDiff returns a description of how two /stats bodies differ
// when they differ only in stats.RangeSearches and stats.NodeAccesses,
// and an error otherwise.
func effortOnlyDiff(got, want []byte) (string, error) {
	effort := []string{"RangeSearches", "NodeAccesses"}
	strip := func(raw []byte) ([]byte, map[string]int64, error) {
		var body map[string]json.RawMessage
		var stats map[string]int64
		if err := json.Unmarshal(raw, &body); err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(body["stats"], &stats); err != nil {
			return nil, nil, err
		}
		kept := map[string]int64{}
		for _, k := range effort {
			kept[k] = stats[k]
			delete(stats, k)
		}
		body["stats"], _ = json.Marshal(stats)
		out, err := json.Marshal(body)
		return out, kept, err
	}
	a, ga, err := strip(got)
	if err != nil {
		return "", err
	}
	b, wa, err := strip(want)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(a, b) {
		return "", fmt.Errorf("differs beyond the effort counters:\n got  %.400s\n want %.400s", got, want)
	}
	return fmt.Sprintf("effort counters differ (RangeSearches %d recovered vs %d live, NodeAccesses %d vs %d)",
		ga["RangeSearches"], wa["RangeSearches"], ga["NodeAccesses"], wa["NodeAccesses"]), nil
}
