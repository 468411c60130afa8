package main

import (
	"fmt"
	"math"
	"math/rand"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/zkedb"
)

// taskSpec is one distribution task: its id, initial participant and
// product count.
type taskSpec struct {
	id       string
	initial  poc.ParticipantID
	products int
}

// spec fixes everything one workload runs, apart from the seed-derived
// operation sequence.
type spec struct {
	name   string
	params zkedb.Params

	// Deployment.
	agg        poc.AggOptions
	fileStores bool
	journal    bool
	proxy      core.ProxyConfig

	// Distribution: setup tasks, then (ingest-mixed only) the tasks the
	// writer runs during the timed phase.
	setup  []taskSpec
	writer []taskSpec

	// Load: one client sends ops requests back to back.
	ops       int
	batch     int  // ids per QueryPathBatch (0: single QueryPath calls)
	badEvery  int  // every badEvery-th op is bad quality (0: all good; 1: all bad)
	fakeEvery int  // every fakeEvery-th op is a never-distributed id (0: none)
	zipf      bool // Zipf over products (else uniform)
}

// zipfS is the Zipf exponent of the hot-stock workloads.
const zipfS = 1.1

// workloads names the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"audit-hot", "recall-cold", "ingest-mixed"}

// Nominal closed-loop rates (paths/s) on a 2-core x86-64 host at
// DefaultParams. They only size the fixed operation count so that a run
// measures for about --seconds; the count, not the clock, ends a run.
const (
	auditHotRate   = 15
	recallColdRate = 4
	ingestRate     = 5 // 2-id batches per second
)

// newSpec builds a workload at paper parameters sized for seconds of load.
// small shrinks it to a TestParams smoke for the package tests.
func newSpec(name string, seconds int, small bool) (*spec, error) {
	sp := &spec{name: name, params: zkedb.DefaultParams()}
	size := func(full, tiny int) int {
		if small {
			return tiny
		}
		return full
	}
	if small {
		sp.params = zkedb.TestParams()
	}
	switch name {
	case "audit-hot":
		// Counterfeit and audit checks on hot stock: one task, the
		// binaries' defaults, good-quality Zipf queries that hit the
		// participants' proof caches after warm-up.
		sp.setup = []taskSpec{{id: "hot-0", initial: "v0", products: size(24, 4)}}
		sp.ops = size(seconds*auditHotRate, 8)
		sp.zipf = true
	case "recall-cold":
		// Recall sweeps: several tasks alternating initials, a proof cache
		// far below the working set, bad-quality queries uniform over the
		// products plus a fixed share of never-distributed ids.
		for i := 0; i < 4; i++ {
			initial := poc.ParticipantID("v0")
			if i%2 == 1 {
				initial = "v1"
			}
			sp.setup = append(sp.setup, taskSpec{id: fmt.Sprintf("cold-%d", i), initial: initial, products: size(3, 2)})
		}
		sp.agg = poc.AggOptions{ProofCacheSize: 1}
		sp.ops = size(seconds*recallColdRate, 10)
		sp.badEvery = 1
		sp.fakeEvery = 5
	case "ingest-mixed":
		// Writes beside reads: file-backed task stores, a sharded and gated
		// proxy with the events journal on, 2-id batches walked one id at a
		// time, and a writer registering three new tasks between them.
		sp.setup = []taskSpec{{id: "ing-0", initial: "v0", products: size(12, 3)}}
		for i := 1; i <= 3; i++ {
			initial := poc.ParticipantID("v1")
			if i%2 == 0 {
				initial = "v0"
			}
			sp.writer = append(sp.writer, taskSpec{id: fmt.Sprintf("ing-%d", i), initial: initial, products: size(4, 2)})
		}
		sp.fileStores = true
		sp.journal = true
		sp.agg = poc.AggOptions{Commit: zkedb.CommitOptions{CacheNodes: 256}}
		sp.proxy = core.ProxyConfig{Shards: 4, BatchFanout: 1, AdmissionWorkers: 8, AdmissionQueue: 32}
		sp.ops = size(seconds*ingestRate, 12)
		sp.batch = 2
		sp.badEvery = 4
		sp.zipf = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return sp, nil
}

// op is one generated operation: stratified draws in [0, 1) mapped onto the
// product list at send time (so reads reach products the writer registers
// mid-run), or a counterfeit id.
type op struct {
	draws   []float64
	fake    poc.ProductID
	quality core.Quality
}

// genOps derives the fixed operation sequence from the workload seed. The
// structure (which ops are bad, which are counterfeit) is fixed by the
// spec. The product draws are a stratified sample of [0, 1) that the seed
// only shuffles: over a fixed product list every seed queries each product
// the same number of times, in a different order, so seeds do not change
// the work a run measures.
func genOps(sp *spec, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	per := max(sp.batch, 1)
	out := make([]op, sp.ops)
	genuine := 0
	for i := range out {
		o := &out[i]
		o.quality = core.Good
		if sp.badEvery > 0 && i%sp.badEvery == sp.badEvery-1 {
			o.quality = core.Bad
		}
		if sp.fakeEvery > 0 && i%sp.fakeEvery == sp.fakeEvery-1 {
			o.fake = poc.ProductID(fmt.Sprintf("fake-%d-%d", seed, i))
			continue
		}
		genuine += per
	}
	perm := rng.Perm(genuine)
	k := 0
	for i := range out {
		if out[i].fake != "" {
			continue
		}
		for j := 0; j < per; j++ {
			out[i].draws = append(out[i].draws, (float64(perm[k])+0.5)/float64(genuine))
			k++
		}
	}
	return out
}

// pick maps a draw in [0, 1) onto one of n products, uniformly or by Zipf
// rank (rank 0 is the first registered product).
func pick(sp *spec, u float64, n int) int {
	if !sp.zipf {
		return min(int(u*float64(n)), n-1)
	}
	cdf := zipfCDF(n)
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return n - 1
}

// zipfCDF returns the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}
