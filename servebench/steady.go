package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady is the steadiness mode: it runs each workload n times (by
// default those BENCHMARK.json lists), with seeds seed, seed+1, ..., as
// separate processes exactly as a single run is invoked, and prints for every end-to-end metric the median, the
// quartiles and the spread (interquartile distance over the median)
// against the bound BENCHMARK.json gives it.
func steady(list string, n, seconds int, seed int64) error {
	bounds, listed, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Println("steady: no bounds:", err)
	}
	names := splitList(list)
	if len(names) == 0 {
		names = listed
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
		values := map[string][]float64{}
		bad := 0
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := runChild(exe, name, s, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				bad++
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d", name, s, res.Correct, res.Attempted, res.Failed)
			for _, k := range sortedKeys(res.Metrics) {
				fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
			}
			fmt.Println()
		}
		fmt.Printf("\n%s: %d runs of %d s, %d with failures\n", name, n, seconds, bad)
		fmt.Printf("  %-20s %12s %12s %12s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, k := range sortedKeys(values) {
			q1, q2, q3 := quartiles(values[k])
			spread := (q3 - q1) / q2
			b, ok := bounds[k]
			verdict := "no bound"
			switch {
			case !ok:
			case spread > b:
				verdict = "TOO WIDE"
			case spread > b/3:
				verdict = "within bound, above a third of it"
			default:
				verdict = "steady"
			}
			bs := "-"
			if ok {
				bs = strconv.FormatFloat(b, 'f', 3, 64)
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %8.3f %8s  %s\n", k, q2, q1, q3, spread, bs, verdict)
		}
		fmt.Println()
	}
	return nil
}

// runChild runs one end-to-end run as a child process and parses the
// result from its last line of output.
func runChild(exe, name string, seed int64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("run failed: %w", err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parsing result %q: %w", last, err)
	}
	return res, nil
}

// readBenchmark reads the end-to-end bounds and the workload names from
// BENCHMARK.json.
func readBenchmark(path string) (bounds map[string]float64, names []string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, err
	}
	bounds = map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	return bounds, names, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
