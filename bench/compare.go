package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readResults collects, per workload and metric, the values of every
// untraced run in a result file.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read only
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// Verdicts of one end-to-end metric on one workload, B against A.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares the medians of a and b under the metric's bound, a share
// of a's median. When either side's own spread (interquartile range over
// median) is wider than the bound the runs cannot resolve a difference of
// that size, and the verdict says so instead of "within bound".
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma // positive: b is larger
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return verdictUnresolved
	case change < -m.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// compareFiles prints one row per end-to-end metric and workload and
// reports whether any is worse in B than in A.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-22s %-20s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: %d runs in A, %d in B", wl.Name, m.Name, len(va), len(vb))
			}
			v := verdict(m, va, vb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-22s %-20s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb),
				100*(median(vb)-median(va))/median(va), 100*m.Bound, v)
		}
	}
	return worse, nil
}
