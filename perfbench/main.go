// Command perfbench is DE-Sword's repository benchmark: one product path
// query as a client sees it, at paper parameters, on three workloads over a
// TCP loopback deployment inside this process. See README.md beside it.
//
//	perfbench --workload audit-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end table; with --trace 1 the per-layer table of a run
// with the layer wrappers on. A stamped record of the run lands under
// .bench_build/records/. The exit code is non-zero when the correctness
// oracle fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload: audit-hot, recall-cold or ingest-mixed")
	seed := flag.Int64("seed", 1, "workload seed: picks the products of the fixed operation sequence")
	seconds := flag.Int("seconds", 20, "sizes the operation count to about this much timed load")
	traceFlag := flag.Int("trace", 0, "1: per-layer run with the layer wrappers on")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(runOpts{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		workRoot: scratchRoot(),
		start:    start,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec := newRecord(out, *seed, *seconds, *traceFlag == 1)
	if err := rec.save(filepath.Join(".bench_build", "records")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving record:", err)
	}
	rec.print(os.Stdout)
	if !out.correct() {
		os.Exit(1)
	}
}

// record is one run's stamped result: what ran, where, and what it
// measured. Fingerprint hashes every input except the seed, so records with
// equal fingerprints are runs of the same benchmark on the same setup and
// compare; Inputs additionally pins the seed.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Env         map[string]any    `json:"env"`
	Counts      map[string]int    `json:"counts"`
	Fingerprint string            `json:"fingerprint"`
	InputsHash  string            `json:"inputs_hash"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedRatio float64           `json:"failed_ratio"`
	Reasons     map[string]int    `json:"failure_reasons,omitempty"`
	Examples    []string          `json:"failure_examples,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Time        string            `json:"time"`
}

func newRecord(out *outcome, seed int64, seconds int, traced bool) *record {
	sp := out.spec
	env := map[string]any{
		"commit":      gitCommit(),
		"source_hash": sourceHash("."),
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goarch":      runtime.GOARCH,
		"params":      sp.params,
		"seconds":     seconds,
	}
	metrics := out.e2e
	if traced {
		metrics = out.layer
	}
	rec := &record{
		Workload:    sp.name,
		Seed:        seed,
		Trace:       traced,
		Env:         env,
		Counts:      out.counts,
		Correct:     out.correct(),
		Attempted:   out.attempted,
		Failed:      out.failed,
		FailedRatio: ratio(float64(out.failed), float64(out.attempted)),
		Reasons:     out.reasons,
		Examples:    out.examples,
		Metrics:     metrics,
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
	rec.Fingerprint = hashJSON(map[string]any{"workload": sp.name, "trace": traced, "env": env, "counts": out.counts})
	rec.InputsHash = hashJSON(map[string]any{"fingerprint": rec.Fingerprint, "seed": seed})
	return rec
}

func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print writes the human-readable table, then the one-line JSON result
// that harnesses read.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v fingerprint %s\n", r.Workload, r.Seed, r.Trace, r.Fingerprint[:16])
	fmt.Fprintf(w, "env %s\n", mustJSON(r.Env))
	fmt.Fprintf(w, "counts %s\n", mustJSON(r.Counts))
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "failed_ratio %.4f (%d of %d)\n", r.FailedRatio, r.Failed, r.Attempted)
	for _, ex := range r.Examples {
		fmt.Fprintf(w, "  failure: %s\n", ex)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for name, m := range r.Metrics {
		result.Metrics[name] = value{m.Value, m.Unit}
	}
	fmt.Fprintln(w, mustJSON(result))
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(data)
}

func hashJSON(v any) string {
	sum := sha256.Sum256([]byte(mustJSON(v)))
	return hex.EncodeToString(sum[:])
}

// gitCommit reads HEAD from a .git directory in the working directory, if
// there is one; benchmark checkouts usually have none, and source_hash
// identifies the code instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(sha))
}

// sourceHash hashes every Go source and module file under root (skipping
// build output and VCS metadata), so records name the exact code they ran.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			switch e.Name() {
			case ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
