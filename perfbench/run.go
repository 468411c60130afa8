package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/obs"
	"desword/internal/poc"
)

// runOpts is one benchmark run.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	small    bool          // TestParams smoke sizes (package tests)
	workRoot string        // parent of the run's scratch directory
	hook     responderHook // tests: swap a participant's responder
	start    time.Time     // process start, for setup_s
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// outcome is everything one run measured and checked.
type outcome struct {
	spec      *spec
	attempted int
	failed    int
	reasons   map[string]int
	examples  []string
	e2e       map[string]metric
	layer     map[string]metric
	counts    map[string]int
}

func (o *outcome) correct() bool { return o.failed == 0 }

// snapshot is the process-wide counter state at a phase boundary.
type snapshot struct {
	interactions uint64
	shardWalks   uint64
	coalesced    uint64
	audit        uint64
	reuses       uint64
	dials        uint64
	cacheHits    uint64
	cacheMisses  uint64
	nodesLoaded  uint64
	shed         uint64
	journal      int64
	store        int64
	goRT         goSample
}

var (
	mCacheHits   = obs.Default.Counter("desword_proofcache_hits", "")
	mCacheMisses = obs.Default.Counter("desword_proofcache_misses", "")
	mLoadedMem   = obs.Default.Counter("desword_zkedb_store_nodes_loaded", "", "backend", "mem")
	mLoadedFile  = obs.Default.Counter("desword_zkedb_store_nodes_loaded", "", "backend", "file")
	mShedQueue   = obs.Default.Counter("desword_admission_shed_total", "", "component", "proxy", "reason", "queue_full")
	mShedDL      = obs.Default.Counter("desword_admission_shed_total", "", "component", "proxy", "reason", "deadline")
)

func (d *deployment) snapshot() snapshot {
	s := snapshot{
		interactions: d.proxy.Stats().Interactions,
		cacheHits:    mCacheHits.Value(),
		cacheMisses:  mCacheMisses.Value(),
		nodesLoaded:  mLoadedMem.Value() + mLoadedFile.Value(),
		shed:         mShedQueue.Value() + mShedDL.Value(),
		goRT:         readGo(),
	}
	for _, sh := range d.proxy.ShardStats() {
		s.shardWalks += sh.Queries
		s.coalesced += sh.Coalesced
		s.audit += sh.AuditEntries
	}
	for _, addr := range d.addrs {
		if c := d.dir.Client(addr); c != nil {
			st := c.Pool().Stats()
			s.reuses += st.Reuses
			s.dials += st.Dials
		}
	}
	if d.eventDir != "" {
		s.journal = dirBytes(d.eventDir)
	}
	if d.storeDir != "" {
		s.store = dirBytes(d.storeDir)
	}
	return s
}

// minus returns the counter deltas s - o. The store size, which only
// writes grow, is left as in s.
func (s snapshot) minus(o snapshot) snapshot {
	s.interactions -= o.interactions
	s.shardWalks -= o.shardWalks
	s.coalesced -= o.coalesced
	s.audit -= o.audit
	s.reuses -= o.reuses
	s.dials -= o.dials
	s.cacheHits -= o.cacheHits
	s.cacheMisses -= o.cacheMisses
	s.nodesLoaded -= o.nodesLoaded
	s.shed -= o.shed
	s.journal -= o.journal
	s.goRT.gcCPU -= o.goRT.gcCPU
	s.goRT.totalCPU -= o.goRT.totalCPU
	s.goRT.allocBytes -= o.goRT.allocBytes
	return s
}

// loadStats accumulates what the client observes during the timed phase.
type loadStats struct {
	samples     []sample
	paths       int // correct query results (ids; counterfeits included)
	idsSent     int
	idsDistinct int
	probes      int   // find_start interactions
	probed      int   // results probes were counted over
	verifyUS    int64 // proxy verify time from the wide events
	accepted    int   // proofs the proxy accepted, from the wide events
	seenEvents  map[string]bool
}

// noteEvent folds one distinct walk's wide event into the counts.
func (ls *loadStats) noteEvent(q core.Quality, ev *events.Event) {
	if ev == nil {
		return
	}
	key := fmt.Sprintf("%s|%d|%d", ev.Product, q, ev.Time.UnixNano())
	if ls.seenEvents[key] {
		return
	}
	ls.seenEvents[key] = true
	probes := len(ev.Hops)
	for i, h := range ev.Hops {
		if h.Identified {
			probes = i + 1
			break
		}
	}
	ls.probes += probes
	ls.probed++
	for _, h := range ev.Hops {
		ls.verifyUS += h.VerifyUS
		switch {
		case h.Violations > 0:
		case q == core.Bad, h.Identified:
			ls.accepted++
		}
	}
}

// run executes one workload end to end: deploy, distribute, warm up, run
// the fixed operation sequence, check, measure.
func run(o runOpts) (*outcome, error) {
	sp, err := newSpec(o.workload, o.seconds, o.small)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.workRoot, o.workload+"-")
	if err != nil {
		return nil, err
	}
	d, err := deploy(sp, workDir, o.traced, o.hook)
	if err != nil {
		return nil, fmt.Errorf("deploying: %w", err)
	}
	defer d.close()
	ctx := context.Background()
	chk := newChecker(d)
	for _, t := range sp.setup {
		if _, err := d.distribute(ctx, t); err != nil {
			return nil, fmt.Errorf("setup distribution %s: %w", t.id, err)
		}
	}
	warmUp(ctx, d, chk, d.registered())
	runtime.GC()
	setup := time.Since(o.start)

	ops := genOps(sp, o.seed)
	ls := &loadStats{seenEvents: make(map[string]bool)}
	setupIngests := len(d.ingests)
	before := d.snapshot()
	if d.layers != nil {
		d.layers.on.Store(true)
	}
	writes := closedLoop(ctx, d, chk, ops, ls)
	if d.layers != nil {
		d.layers.on.Store(false)
	}
	after := d.snapshot()
	for _, w := range writes {
		after = after.minus(w)
	}
	chk.finish()

	out := &outcome{
		spec:      sp,
		attempted: chk.attempted,
		failed:    chk.failed,
		reasons:   chk.reasons,
		examples:  chk.examples,
		counts: map[string]int{
			"ops":          len(ops),
			"requests":     len(ls.samples),
			"paths":        ls.paths,
			"setup_tasks":  len(sp.setup),
			"writer_tasks": len(sp.writer),
			"products":     len(d.registered()),
		},
	}
	out.e2e = endToEnd(d, ls, setup, setupIngests)
	if d.layers != nil {
		out.layer = perLayer(ctx, d, ls, before, after)
	}
	return out, nil
}

// warmUp touches every product once in each quality before it is timed,
// filling proof caches and lazily created soft chains and opening pooled
// connections. Two requests are in flight (the host's core count).
func warmUp(ctx context.Context, d *deployment, chk *checker, products []poc.ProductID) {
	type job struct {
		id poc.ProductID
		q  core.Quality
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := d.client.QueryPath(ctx, j.id, j.q)
				chk.query(j.id, j.q, res, err)
			}
		}()
	}
	for _, q := range []core.Quality{core.Good, core.Bad} {
		for _, id := range products {
			jobs <- job{id, q}
		}
	}
	close(jobs)
	wg.Wait()
}

// send runs one operation — a QueryPath, or a QueryPathBatch when the spec
// batches — checks every result, records it, and returns its latency.
func send(ctx context.Context, d *deployment, chk *checker, o op, ls *loadStats) time.Duration {
	products := d.registered()
	var ids []poc.ProductID
	if o.fake != "" {
		ids = append(ids, o.fake)
	}
	distinct := make(map[poc.ProductID]bool)
	for _, u := range o.draws {
		id := products[pick(d.spec, u, len(products))]
		ids = append(ids, id)
		distinct[id] = true
	}
	items := make([]core.BatchItem, len(ids))
	start := time.Now()
	if d.spec.batch == 0 {
		items[0].Result, items[0].Err = d.client.QueryPath(ctx, ids[0], o.quality)
	} else if res, err := d.client.QueryPathBatch(ctx, ids, o.quality); err != nil {
		for k := range items {
			items[k].Err = err
		}
	} else {
		copy(items, res.Items)
	}
	lat := time.Since(start)
	for k, it := range items {
		if it.Shed {
			chk.attempt(1)
			chk.fail("load_shed", string(ids[k]))
			continue
		}
		if chk.query(ids[k], o.quality, it.Result, it.Err) {
			ls.paths++
		}
		if it.Result != nil {
			ls.noteEvent(o.quality, it.Result.Event)
		}
	}
	ls.idsSent += len(ids)
	ls.idsDistinct += len(ids) - len(o.draws) + len(distinct)
	return lat
}

// closedLoop sends the operations one at a time from a single client. The
// writer's distribution tasks run between reads at evenly spaced positions;
// each new task's products are warmed like the setup's, then join the
// reads. Reads and writes never overlap: on a 2-core host, overlapping them
// doubled the run-to-run spread of the read latencies. It returns what each
// writer step added to the counters, so the per-path figures can cover
// reads only.
func closedLoop(ctx context.Context, d *deployment, chk *checker, ops []op, ls *loadStats) (writes []snapshot) {
	next := 0
	for i, o := range ops {
		if next < len(d.spec.writer) && i >= (2*next+1)*len(ops)/(2*len(d.spec.writer)) {
			writes = append(writes, writeStep(ctx, d, chk, d.spec.writer[next]))
			next++
		}
		cpu0, paths0 := cpuTime(), ls.paths
		lat := send(ctx, d, chk, o, ls)
		ls.samples = append(ls.samples, sample{lat: lat, cpu: cpuTime() - cpu0, paths: ls.paths - paths0})
	}
	return writes
}

// writeStep distributes and registers one task, then warms its products,
// with the layer wrappers paused. It returns the counter deltas it caused.
func writeStep(ctx context.Context, d *deployment, chk *checker, t taskSpec) snapshot {
	if d.layers != nil {
		d.layers.on.Store(false)
		defer d.layers.on.Store(true)
	}
	before := d.snapshot()
	known := len(d.registered())
	chk.attempt(1)
	if _, err := d.distribute(ctx, t); err != nil {
		chk.fail("ingest_error", fmt.Sprintf("%s: %v", t.id, err))
	}
	warmUp(ctx, d, chk, d.registered()[known:])
	return d.snapshot().minus(before)
}

// endToEnd computes the user-visible metrics of the timed phase. The read
// metrics are medians over blocks of consecutive requests (see blockStats).
func endToEnd(d *deployment, ls *loadStats, setup time.Duration, setupIngests int) map[string]metric {
	ingests := d.ingests[:setupIngests]
	if len(d.spec.writer) > 0 {
		ingests = d.ingests[setupIngests:]
	}
	var ingestMS []float64
	for _, in := range ingests {
		ingestMS = append(ingestMS, ms(in.total))
	}
	b := blockStats(ls.samples)
	n := len(ls.samples)
	return map[string]metric{
		"throughput_pps":  {b.throughput, "paths/s", ls.paths},
		"latency_p50_ms":  {b.p50, "ms", n},
		"latency_p90_ms":  {b.p90, "ms", n},
		"cpu_ms_per_path": {b.cpuPerPath, "ms", ls.paths},
		"ingest_p50_ms":   {quantile(ingestMS, 0.5), "ms", len(ingestMS)},
		"setup_s":         {setup.Seconds(), "s", 1},
		"peak_rss_mb":     {peakRSSMB(), "MB", 1},
	}
}

// sample is one request as the client saw it: its latency, the process CPU
// time spent while it ran, and the correct results it returned.
type sample struct {
	lat, cpu time.Duration
	paths    int
}

// blocks is how many runs of consecutive requests blockStats splits a run
// into. The host's per-core speed swings by up to 2x for seconds at a time;
// a median over blocks keeps a slow stretch that covers less than half of a
// run from moving its figures, where a pooled figure would move.
const blocks = 5

// blockFigures are the read metrics of a run, each the median over blocks.
type blockFigures struct {
	throughput, p50, p90, cpuPerPath float64
}

func blockStats(samples []sample) blockFigures {
	var tput, p50, p90, cpu []float64
	for b := 0; b < blocks; b++ {
		part := samples[b*len(samples)/blocks : (b+1)*len(samples)/blocks]
		if len(part) == 0 {
			continue
		}
		var wall, busy time.Duration
		var paths int
		lats := make([]float64, len(part))
		for i, s := range part {
			wall += s.lat
			busy += s.cpu
			paths += s.paths
			lats[i] = ms(s.lat)
		}
		tput = append(tput, ratio(float64(paths), wall.Seconds()))
		p50 = append(p50, quantile(lats, 0.5))
		p90 = append(p90, quantile(lats, 0.9))
		cpu = append(cpu, ratio(ms(busy), float64(paths)))
	}
	return blockFigures{
		throughput: quantile(tput, 0.5),
		p50:        quantile(p50, 0.5),
		p90:        quantile(p90, 0.5),
		cpuPerPath: quantile(cpu, 0.5),
	}
}

// perLayer computes the traced run's per-layer table. The replay runs after
// the timed phase, on an otherwise idle process.
func perLayer(ctx context.Context, d *deployment, ls *loadStats, before, after snapshot) map[string]metric {
	l := d.layers
	rp := l.replay(ctx)
	paths := float64(ls.paths)
	requests := float64(len(ls.samples))
	b := blockStats(ls.samples)

	var commitMS float64
	var traces, commits int
	for _, in := range d.ingests {
		commitMS += ms(in.commit)
		traces += in.traces
		commits += in.commits
	}
	var latSum float64
	for _, x := range ls.samples {
		latSum += ms(x.lat)
	}
	verifyMS := float64(ls.verifyUS) / 1000
	hits := float64(after.cacheHits - before.cacheHits)
	misses := float64(after.cacheMisses - before.cacheMisses)
	reuses := float64(after.reuses - before.reuses)
	dials := float64(after.dials - before.dials)
	walks := float64(after.shardWalks - before.shardWalks)
	coalesced := float64(after.coalesced - before.coalesced)
	gcCPU := after.goRT.gcCPU - before.goRT.gcCPU
	totalCPU := after.goRT.totalCPU - before.goRT.totalCPU
	var writerTraces int
	for _, in := range d.ingests[len(d.spec.setup):] {
		writerTraces += in.traces
	}
	mismatch := rp.accepted - ls.accepted
	if mismatch < 0 {
		mismatch = -mismatch
	}

	return map[string]metric{
		"poc.verify_own_ms":                 {ratio(ms(rp.own), float64(rp.ownN)), "ms", rp.ownN},
		"poc.verify_non_ms":                 {ratio(ms(rp.non), float64(rp.nonN)), "ms", rp.nonN},
		"poc.replay_verify_factor":          {ratio(ms(rp.own+rp.non), verifyMS), "ratio", rp.ownN + rp.nonN},
		"poc.replay_accept_mismatch":        {float64(mismatch), "count", rp.accepted + rp.rejected},
		"poc.replay_rejected":               {float64(rp.rejected), "count", rp.accepted + rp.rejected},
		"rsavc.verify_ms_per_proof":         {ratio(ms(rp.rsa), float64(rp.splitProofs)), "ms", rp.splitProofs},
		"mercurial.verify_ms_per_proof":     {ratio(ms(rp.merc), float64(rp.splitProofs)), "ms", rp.splitProofs},
		"rsavc.verify_calls_per_path":       {ratio(float64(rp.rsaCalls), paths), "count", ls.paths},
		"mercurial.verify_calls_per_path":   {ratio(float64(rp.mercCalls), paths), "count", ls.paths},
		"poc.prove_own_ms":                  {ratio(ms(l.proveOwn), float64(l.proveOwnN)), "ms", l.proveOwnN},
		"poc.prove_non_ms":                  {ratio(ms(l.proveNon), float64(l.proveNonN)), "ms", l.proveNonN},
		"poc.prove_share":                   {ratio(ms(l.handler), ms(l.handler)+verifyMS), "ratio", l.handlerN},
		"poc.cache_hit_ratio":               {ratio(hits, hits+misses), "ratio", int(hits + misses)},
		"core.interactions_per_path":        {ratio(float64(after.interactions-before.interactions), paths), "count", ls.paths},
		"core.find_start_probes_per_path":   {ratio(float64(ls.probes), float64(ls.probed)), "count", ls.probed},
		"core.proxy_self_ms":                {ratio(latSum-ms(l.rtt), requests), "ms", len(ls.samples)},
		"core.coalesced_ratio":              {ratio(coalesced, walks+coalesced), "ratio", int(walks + coalesced)},
		"core.batch_dedup_ratio":            {ratio(float64(ls.idsSent-ls.idsDistinct), float64(ls.idsSent)), "ratio", ls.idsSent},
		"core.admission_shed":               {float64(after.shed - before.shed), "count", ls.idsSent},
		"node.rtt_ms":                       {ratio(ms(l.rtt), float64(l.rttCalls)), "ms", l.rttCalls},
		"node.wire_ms":                      {ratio(ms(l.rtt-l.handler), float64(l.rttCalls)), "ms", l.rttCalls},
		"node.bytes_per_path":               {ratio(float64(l.proofBytes), paths), "B", ls.paths},
		"node.pool_reuse_ratio":             {ratio(reuses, reuses+dials), "ratio", int(reuses + dials)},
		"zkedb.commit_ms_per_trace":         {ratio(commitMS, float64(traces)), "ms", traces},
		"zkedb.traces_per_commit":           {ratio(float64(traces), float64(commits)), "count", commits},
		"store.bytes_per_trace":             {ratio(float64(after.store-before.store), float64(writerTraces)), "B", writerTraces},
		"store.nodes_loaded_per_path":       {ratio(float64(after.nodesLoaded-before.nodesLoaded), paths), "count", ls.paths},
		"events.journal_bytes_per_path":     {ratio(float64(after.journal-before.journal), paths), "B", ls.paths},
		"reputation.audit_entries_per_path": {ratio(float64(after.audit-before.audit), paths), "count", ls.paths},
		"go.gc_cpu_share":                   {ratio(gcCPU, totalCPU), "ratio", 1},
		"go.alloc_mb_per_path":              {ratio(float64(after.goRT.allocBytes-before.goRT.allocBytes)/1e6, paths), "MB", ls.paths},
		"trace.latency_p50_ms":              {b.p50, "ms", len(ls.samples)},
		"trace.cpu_ms_per_path":             {b.cpuPerPath, "ms", ls.paths},
	}
}

// scratchRoot is where runs keep their file stores and journals: inside the
// working directory, so a run writes nowhere else.
func scratchRoot() string { return filepath.Join(".bench_build", "tmp") }
