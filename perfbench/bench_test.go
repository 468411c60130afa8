package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"desword/internal/adversary"
	"desword/internal/core"
	"desword/internal/poc"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the program
// to: every declared metric must be produced under its declared unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return bs
}

func smoke(t *testing.T, workload string, traced bool, hook responderHook) *outcome {
	t.Helper()
	out, err := run(runOpts{
		workload: workload,
		seed:     7,
		seconds:  1,
		traced:   traced,
		small:    true,
		workRoot: t.TempDir(),
		hook:     hook,
		start:    time.Now(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

// TestWorkloadSmoke runs every declared workload at TestParams, untraced and
// traced: the oracle must pass and every declared metric must be reported
// with its declared unit.
func TestWorkloadSmoke(t *testing.T) {
	bs := loadBenchmarkSpec(t)
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bs.Workloads), len(workloads))
	}
	for i, w := range bs.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
		for _, traced := range []bool{false, true} {
			out := smoke(t, w.Name, traced, nil)
			if !out.correct() {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", w.Name, traced, out.failed, out.attempted, out.examples)
			}
			got, want := out.e2e, bs.EndToEnd
			if traced {
				got = out.layer
				want = bs.PerLayer
			}
			for _, m := range want {
				v, ok := got[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if v.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if got[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestReplayMatchesProxy checks the per-layer replay against the proxy's own
// record: it must accept exactly the proofs the proxy accepted, and its
// summed verification time must land within a factor of 3 of the wide
// events' verify_us.
func TestReplayMatchesProxy(t *testing.T) {
	for _, w := range workloads {
		out := smoke(t, w, true, nil)
		if got := out.layer["poc.replay_accept_mismatch"].Value; got != 0 {
			t.Errorf("%s: replay and proxy disagree on %v proofs", w, got)
		}
		if got := out.layer["poc.replay_rejected"].Value; got != 0 {
			t.Errorf("%s: replay rejected %v honest proofs", w, got)
		}
		if f := out.layer["poc.replay_verify_factor"].Value; f < 1.0/3 || f > 3 {
			t.Errorf("%s: replayed verify time is %.2fx the events' verify_us, want within 3x", w, f)
		}
	}
}

// TestAdversaryFailsOracle serves the initial participant through an
// internal/adversary wrapper that returns wrong RFID-traces: the proxy
// rejects its ownership proofs, so every query misses its ground truth and
// the run must report failures, while the replay still agrees with the
// proxy on which proofs were bad.
func TestAdversaryFailsOracle(t *testing.T) {
	hook := func(id poc.ParticipantID, m *core.Member) core.Responder {
		if id != "v0" {
			return m
		}
		d := adversary.NewDishonest(m)
		for i := 1; i <= 8; i++ {
			d.WrongTrace[poc.ProductID(fmt.Sprintf("hot-0-%d", i))] = []byte("forged")
		}
		return d
	}
	out := smoke(t, "audit-hot", true, hook)
	if out.correct() || out.failed == 0 {
		t.Fatalf("adversary run passed the oracle: %d of %d failed", out.failed, out.attempted)
	}
	if ratio(float64(out.failed), float64(out.attempted)) <= 0 {
		t.Fatal("failed_ratio is 0 with a lying participant")
	}
	if out.reasons["violation"] == 0 {
		t.Errorf("failure reasons %v, want violations", out.reasons)
	}
	if got := out.layer["poc.replay_rejected"].Value; got == 0 {
		t.Error("replay accepted every forged proof")
	}
	if got := out.layer["poc.replay_accept_mismatch"].Value; got != 0 {
		t.Errorf("replay and proxy disagree on %v proofs", got)
	}
}

// TestOpsDeterministic pins the fixed operation sequence to the seed.
func TestOpsDeterministic(t *testing.T) {
	for _, w := range workloads {
		sp, err := newSpec(w, 20, false)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := genOps(sp, 3), genOps(sp, 3), genOps(sp, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different operations", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same operations", w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got != want && (got-want > 1e-9 || want-got > 1e-9) {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
