// Command mashperf is the repository's standing benchmark. It drives the
// engine through three workloads (fillrandom, cloud-read and recover),
// checks every result against a model of what was written, and
// prints the end-to-end metrics, or with --trace 1 the per-layer
// breakdown, ending with one JSON line. See NOTES.md for the workloads,
// their metrics and how to read the spans file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fillrandom, cloud-read or recover")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the workload untraced and then traced, and reports the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/mashperf-work", "directory for the stores and the spans file")
	flag.Parse()
	code, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mashperf:", err)
	}
	os.Exit(code)
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the workload and prints the report. It returns exit code 1
// when any operation failed or returned a wrong result, or the run could
// not complete.
func run(name string, seed int64, seconds time.Duration, traced bool, workdir string) (int, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("mashperf %s seed=%d seconds=%g trace=%v clients=%d\n", name, seed, seconds.Seconds(), traced, nClients)
	// Untraced, set-up repeats for a steady setup_s. A trace run does not
	// report setup_s, so each pass sets up once, and its untraced pass, which
	// only gives the timed phase to compare the traced one with, skips the
	// crash-and-check tail, keeping the run well inside its time limit.
	r := &runner{seed: seed, seconds: seconds, dir: filepath.Join(dir, "untraced"), repeat: !traced, quick: traced}
	up := &pass{}
	if err := w.run(r, up); err != nil {
		return 1, err
	}
	describe(os.Stdout, "untraced", up)
	passes := []*pass{up}
	var metrics []metric
	if !traced {
		metrics = endToEnd(up)
	} else {
		tr := newTracer()
		r := &runner{seed: seed, seconds: seconds, dir: filepath.Join(dir, "traced"), tr: tr}
		tp := &pass{}
		if err := w.run(r, tp); err != nil {
			return 1, err
		}
		describe(os.Stdout, "traced", tp)
		passes = append(passes, tp)
		metrics = perLayer(tr, tp, up)
		warnClosure(os.Stdout, metrics)
		spans := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.writeSpans(spans); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %s (%d kept, %d dropped)\n", spans, len(tr.spans), tr.dropped)
	}

	res := tally(passes)
	fmt.Println("metrics:")
	for _, m := range metrics {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, fmt.Errorf("%d operations failed or returned wrong results", res.Failed)
	}
	return 0, nil
}

// tally counts the operations of every phase of the passes. A run is
// correct only if no operation failed and none returned a wrong result: an
// error from the engine, in the timed phase or the read-back of an
// acknowledged key, fails the run like a wrong value does.
func tally(passes []*pass) result {
	res := result{Metrics: map[string]jsonMetric{}}
	for _, p := range passes {
		for _, rec := range []*recorder{&p.prep, &p.main, &p.check} {
			res.Attempted += rec.ops
			res.Failed += rec.failed + rec.wrong
		}
	}
	res.Correct = res.Failed == 0
	return res
}
