// Command servebench is the repository's serving benchmark. It drives an
// in-process server.Multi over loopback HTTP with one closed-loop writer
// and one open-loop reader, checks every response and the final window
// against DBSCAN, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of standard output. See
// README.md for workloads and metric definitions.
//
//	bash servebench/run.sh --workload dtg-1pct --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --steady 10 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// opts are one run's settings.
type opts struct {
	w       workload
	seed    int64
	seconds int
	trace   int
	dir     string // scratch directory for the run's WAL and checkpoints
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: dtg-1pct, covid-100k or small-batch")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced layer replay and prints per-layer metrics")
	steadyN := flag.Int("steady", 0, "steadiness mode: run each workload this many times with different seeds")
	steadyWL := flag.String("workloads", "", "steadiness mode: comma-separated workloads (default: those BENCHMARK.json lists)")
	flag.Parse()

	if *steadyN > 0 {
		if err := steady(*steadyWL, *steadyN, *seconds, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	o := opts{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag,
		dir: filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	os.Exit(run(o))
}

func run(o opts) int {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	defer os.RemoveAll(o.dir)
	host, _ := json.Marshal(hostStamp(o))
	fmt.Printf("host %s\n", host)

	var led ledger
	var got map[string]metric
	var err error
	if o.trace == 1 {
		got, err = runTraced(o, &led)
	} else {
		got, err = runEndToEnd(o, &led)
	}
	for _, e := range led.errs {
		fmt.Println("FAILED:", e)
	}
	for name, m := range got {
		if err == nil && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			err = fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		led.failed++
		led.attempted++
		got = map[string]metric{}
	}
	res := result{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: got}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "servebench: encoding the result:", merr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
