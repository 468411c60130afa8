package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// checker is the correctness oracle. Every result is compared with its
// ground truth as it arrives; at the end of the run the proxy's score table
// must equal a fresh DefaultStrategy replay of the verified paths, and its
// shard ledgers must verify as hash chains.
type checker struct {
	d *deployment

	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	examples  []string
	settled   map[string]bool
	expected  *reputation.Ledger
}

func newChecker(d *deployment) *checker {
	return &checker{
		d:        d,
		reasons:  make(map[string]int),
		settled:  make(map[string]bool),
		expected: reputation.NewLedger(),
	}
}

// fail records one failed operation with its reason.
func (c *checker) fail(reason, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	c.reasons[reason]++
	if len(c.examples) < 10 {
		c.examples = append(c.examples, reason+": "+detail)
	}
}

// attempt counts operations the oracle judged (queries, ingest tasks).
func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// query judges one path-query result and reports whether it was correct.
func (c *checker) query(id poc.ProductID, q core.Quality, res *core.Result, err error) bool {
	c.attempt(1)
	if err != nil {
		c.fail("query_error", fmt.Sprintf("%s: %v", id, err))
		return false
	}
	if res == nil {
		c.fail("nil_result", string(id))
		return false
	}
	if len(res.Violations) > 0 {
		c.fail("violation", fmt.Sprintf("%s: %s %s", id, res.Violations[0].Type, res.Violations[0].Detail))
		return false
	}
	t, genuine := c.d.groundTruth(id)
	if !genuine {
		if len(res.Path) != 0 || res.TaskID != "" {
			c.fail("counterfeit_path", fmt.Sprintf("%s: got path %v in task %q", id, res.Path, res.TaskID))
			return false
		}
		return true
	}
	if res.TaskID != t.task {
		c.fail("wrong_task", fmt.Sprintf("%s: task %q, want %q", id, res.TaskID, t.task))
		return false
	}
	if !samePath(res.Path, t.path) {
		c.fail("wrong_path", fmt.Sprintf("%s: path %v, want %v", id, res.Path, t.path))
		return false
	}
	if !res.Complete {
		c.fail("incomplete", string(id))
		return false
	}
	for _, v := range t.path {
		tr, ok := res.Traces[v]
		if !ok || !bytes.Equal(tr.Data, supplychain.DefaultTraceData(v, id)) {
			c.fail("wrong_trace", fmt.Sprintf("%s at %s", id, v))
			return false
		}
	}
	c.settle(id, q, res, t.path)
	return true
}

// settle replays the double-edged award for one walk. Duplicate batch
// entries and coalesced followers share the leader's walk and its single
// settlement; the walk's wide event (its start time) identifies it.
func (c *checker) settle(id poc.ProductID, q core.Quality, res *core.Result, path []poc.ParticipantID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res.Event != nil {
		key := fmt.Sprintf("%s|%d|%d", id, q, res.Event.Time.UnixNano())
		if c.settled[key] {
			return
		}
		c.settled[key] = true
	}
	reputation.DefaultStrategy().AwardPath(c.expected, id, q, path)
}

// finish runs the end-of-run checks against the proxy's ledgers.
func (c *checker) finish() {
	c.attempt(1)
	published, err := reputation.VerifyShardChains(c.d.proxy.AuditShards())
	if err != nil {
		c.fail("ledger_chain", err.Error())
		return
	}
	scores := c.d.proxy.Scores()
	want := c.expected.Scores()
	for _, v := range unionKeys(scores, want, published) {
		if math.Abs(scores[v]-want[v]) > 1e-9 || math.Abs(published[v]-want[v]) > 1e-9 {
			c.fail("score_mismatch", fmt.Sprintf("%s: proxy %.1f, chain %.1f, replay %.1f", v, scores[v], published[v], want[v]))
			return
		}
	}
}

func samePath(a, b []poc.ParticipantID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func unionKeys(ms ...map[poc.ParticipantID]float64) []poc.ParticipantID {
	seen := make(map[poc.ParticipantID]bool)
	var out []poc.ParticipantID
	for _, m := range ms {
		for v := range m {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
