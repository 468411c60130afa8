package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/qmercurial"
	"desword/internal/zkedb"
)

// This file measures the layers from outside the program: a timing
// core.Responder around each served member (participant proving), a timing
// Responder around the proxy's resolver (round trips, and the proofs the
// proxy receives), and an offline replay of those proofs through poc.Verify
// and through each level's RSA-VC and mercurial checks. Nothing here is
// active on untraced runs.

// maxSplitReplays bounds how many proofs the per-primitive replay re-checks;
// the split is a ratio, so a deterministic subsample measures it, while the
// call counts are exact over every proof.
const maxSplitReplays = 200

// seenProof is one proof the proxy verified, as captured on its resolver.
type seenProof struct {
	task        string
	participant poc.ParticipantID
	product     poc.ProductID
	proof       *poc.Proof
}

// layers accumulates the traced run's per-layer observations. Recording is
// switched on only for the timed phase.
type layers struct {
	d  *deployment
	on atomic.Bool

	mu         sync.Mutex
	rtt        time.Duration // proxy → participant round trips
	rttCalls   int
	handler    time.Duration // participant handler time (prove)
	handlerN   int
	proveOwn   time.Duration
	proveOwnN  int
	proveNon   time.Duration
	proveNonN  int
	proofBytes int64
	proofs     []seenProof
}

func newLayers(d *deployment) *layers { return &layers{d: d} }

// serverSide wraps a served responder so participant handler time is
// measured and split by the kind of proof it returned.
func (l *layers) serverSide(r core.Responder) core.Responder {
	return &timedResponder{inner: r, l: l}
}

// proxySide wraps the proxy's resolver so every round trip is timed and
// every proof the proxy goes on to verify is captured for replay.
func (l *layers) proxySide(resolve core.Resolver) core.Resolver {
	return func(v poc.ParticipantID) (core.Responder, error) {
		r, err := resolve(v)
		if err != nil {
			return nil, err
		}
		return &rttResponder{inner: r, v: v, l: l}, nil
	}
}

type timedResponder struct {
	inner core.Responder
	l     *layers
}

func (t *timedResponder) Query(ctx context.Context, task string, id poc.ProductID, q core.Quality) (*core.Response, error) {
	start := time.Now()
	resp, err := t.inner.Query(ctx, task, id, q)
	t.l.noteHandler(time.Since(start), resp)
	return resp, err
}

func (t *timedResponder) DemandOwnership(ctx context.Context, task string, id poc.ProductID) (*core.Response, error) {
	start := time.Now()
	resp, err := t.inner.DemandOwnership(ctx, task, id)
	t.l.noteHandler(time.Since(start), resp)
	return resp, err
}

func (l *layers) noteHandler(d time.Duration, resp *core.Response) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler += d
	l.handlerN++
	if resp == nil || resp.Proof == nil {
		return
	}
	if resp.Proof.Kind == poc.Ownership {
		l.proveOwn += d
		l.proveOwnN++
	} else {
		l.proveNon += d
		l.proveNonN++
	}
}

type rttResponder struct {
	inner core.Responder
	v     poc.ParticipantID
	l     *layers
}

func (r *rttResponder) Query(ctx context.Context, task string, id poc.ProductID, q core.Quality) (*core.Response, error) {
	start := time.Now()
	resp, err := r.inner.Query(ctx, task, id, q)
	r.l.noteRTT(time.Since(start), task, r.v, id, resp, verifiedByProxy(q, false, resp))
	return resp, err
}

func (r *rttResponder) DemandOwnership(ctx context.Context, task string, id poc.ProductID) (*core.Response, error) {
	start := time.Now()
	resp, err := r.inner.DemandOwnership(ctx, task, id)
	r.l.noteRTT(time.Since(start), task, r.v, id, resp, verifiedByProxy(core.Bad, true, resp))
	return resp, err
}

// verifiedByProxy mirrors the proxy's rule for which responses it runs
// poc.Verify on: good queries verify claimed ownership only; bad queries
// verify a claimed non-ownership proof or a claimed ownership proof; an
// ownership demand's answer is verified when it carries an ownership proof.
func verifiedByProxy(q core.Quality, demand bool, resp *core.Response) bool {
	if resp == nil || resp.Proof == nil {
		return false
	}
	switch {
	case demand:
		return resp.Proof.Kind == poc.Ownership
	case q == core.Good:
		return resp.Claim == core.ClaimProcessed && resp.Proof.Kind == poc.Ownership
	case resp.Claim == core.ClaimNotProcessed:
		return resp.Proof.Kind == poc.NonOwnership
	default:
		return resp.Proof.Kind == poc.Ownership
	}
}

func (l *layers) noteRTT(d time.Duration, task string, v poc.ParticipantID, id poc.ProductID, resp *core.Response, verified bool) {
	if !l.on.Load() {
		return
	}
	var size int
	if resp != nil && resp.Proof != nil && resp.Proof.ZK != nil {
		size, _ = resp.Proof.ZK.Size()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rtt += d
	l.rttCalls++
	l.proofBytes += int64(size)
	if verified {
		l.proofs = append(l.proofs, seenProof{task: task, participant: v, product: id, proof: resp.Proof})
	}
}

// replayStats is the offline re-verification of every captured proof.
type replayStats struct {
	ownN, nonN          int
	own, non            time.Duration // poc.Verify time by kind
	accepted, rejected  int
	rsaCalls, mercCalls int           // exact, over every proof
	splitProofs         int           // proofs in the per-primitive subsample
	rsa, merc           time.Duration // per-primitive time over the subsample
}

// replay re-runs poc.Verify on every captured proof, then re-checks a
// deterministic subsample level by level, timing the RSA vector-commitment
// check (Key.VC.Verify) apart from the P-256 mercurial checks
// (Key.TMC.VerHOpen/VerSOpen).
func (l *layers) replay(ctx context.Context) replayStats {
	l.mu.Lock()
	proofs := append([]seenProof(nil), l.proofs...)
	l.mu.Unlock()
	var st replayStats
	crs := l.d.ps.CRS
	step := (len(proofs) + maxSplitReplays - 1) / maxSplitReplays
	if step < 1 {
		step = 1
	}
	for i, sp := range proofs {
		list := l.d.list(sp.task)
		if list == nil {
			st.rejected++
			continue
		}
		credential, err := list.POC(sp.participant)
		if err != nil {
			st.rejected++
			continue
		}
		start := time.Now()
		_, verr := poc.Verify(ctx, l.d.ps, credential, sp.product, sp.proof)
		d := time.Since(start)
		if sp.proof.Kind == poc.Ownership {
			st.own += d
			st.ownN++
		} else {
			st.non += d
			st.nonN++
		}
		if verr == nil {
			st.accepted++
		} else {
			st.rejected++
		}
		if sp.proof.ZK != nil {
			st.rsaCalls += len(sp.proof.ZK.Levels)
			st.mercCalls += len(sp.proof.ZK.Levels) + 1
		}
		if i%step == 0 && sp.proof.ZK != nil {
			rsa, merc := splitVerify(crs, credential.Com, sp.proof.ZK)
			st.rsa += rsa
			st.merc += merc
			st.splitProofs++
		}
	}
	return st
}

// splitVerify re-times a proof's openings one primitive at a time: per
// level the mercurial opening of the current commitment and the RSA-VC
// slot opening, then the leaf's mercurial opening. The verdict is
// poc.Verify's; this only splits its time.
func splitVerify(crs *zkedb.CRS, com zkedb.Commitment, proof *zkedb.Proof) (rsa, merc time.Duration) {
	cur := com.Root
	timed := func(d *time.Duration, check func() bool) {
		start := time.Now()
		_ = check()
		*d += time.Since(start)
	}
	for _, lo := range proof.Levels {
		switch {
		case lo.Hard != nil:
			h := lo.Hard
			timed(&merc, func() bool { return crs.Key.TMC.VerHOpen(cur.MC, h.MCOpen) })
			timed(&rsa, func() bool { return crs.Key.VC.Verify(h.V, h.Slot, h.Message, h.Witness) })
		case lo.Soft != nil:
			s := lo.Soft
			timed(&merc, func() bool { return crs.Key.TMC.VerSOpen(cur.MC, s.MCTease) })
			timed(&rsa, func() bool { return crs.Key.VC.Verify(s.V, s.Slot, s.Message, s.Witness) })
		}
		cur = qmercurial.Commitment{MC: lo.Child}
	}
	switch {
	case proof.LeafHard != nil:
		timed(&merc, func() bool { return crs.Key.TMC.VerHOpen(cur.MC, *proof.LeafHard) })
	case proof.LeafTease != nil:
		timed(&merc, func() bool { return crs.Key.TMC.VerSOpen(cur.MC, *proof.LeafTease) })
	}
	return rsa, merc
}
