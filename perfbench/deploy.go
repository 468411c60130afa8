package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// rpcTimeout bounds every client and proxy→participant exchange. It is far
// above any latency these workloads produce; a request that hits it is a
// failure, not a slow sample.
const rpcTimeout = 60 * time.Second

// truth is the ground-truth outcome of one distributed product.
type truth struct {
	task string
	path []poc.ParticipantID
}

// ingest is one distribution task from start to queryable.
type ingest struct {
	total   time.Duration // RunTask + commits + RegisterList
	commit  time.Duration // core.BuildPOCList alone
	traces  int           // traces the involved members committed
	commits int           // member commits (involved participants)
}

// deployment is one DE-Sword fleet inside the benchmark process, over TCP
// loopback: a participant server per Figure 1 vertex, a proxy server in
// front of a core.Proxy, and the one node.ProxyClient the benchmark
// drives.
type deployment struct {
	spec     *spec
	ps       *poc.PublicParams
	graph    *supplychain.Graph
	members  map[poc.ParticipantID]*core.Member
	addrs    map[poc.ParticipantID]string
	servers  []*node.ParticipantServer
	dir      *node.Directory
	proxy    *core.Proxy
	proxySrv *node.ProxyServer
	client   *node.ProxyClient
	sink     *events.Sink
	workDir  string
	storeDir string
	eventDir string
	layers   *layers // nil unless the run is traced

	mu       sync.Mutex
	lists    map[string]*poc.List
	truth    map[poc.ProductID]truth
	products []poc.ProductID // registration order
	ingests  []ingest
}

// responderHook lets tests swap a participant's served responder (for
// example an internal/adversary wrapper). nil serves the honest member.
type responderHook func(id poc.ParticipantID, m *core.Member) core.Responder

// deploy builds the fleet for a workload: public parameters, one member and
// server per participant, the proxy tier and the client. workDir holds the
// file-backed stores and the events journal.
func deploy(sp *spec, workDir string, traced bool, hook responderHook) (d *deployment, err error) {
	d = &deployment{
		spec:    sp,
		graph:   supplychain.FigureOneGraph(),
		members: make(map[poc.ParticipantID]*core.Member),
		addrs:   make(map[poc.ParticipantID]string),
		workDir: workDir,
		lists:   make(map[string]*poc.List),
		truth:   make(map[poc.ProductID]truth),
	}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if d.ps, err = poc.PSGen(sp.params); err != nil {
		return d, err
	}
	if traced {
		d.layers = newLayers(d)
	}
	var memberOpts []core.MemberOption
	memberOpts = append(memberOpts, core.WithAggOptions(sp.agg))
	if sp.fileStores {
		d.storeDir = filepath.Join(workDir, "stores")
		memberOpts = append(memberOpts, core.WithTaskStores(core.FileTaskStores(d.storeDir, 0)))
	}
	for _, v := range d.graph.Participants() {
		m := core.NewMember(d.ps, supplychain.NewParticipant(v), memberOpts...)
		d.members[v] = m
		var r core.Responder = m
		if hook != nil {
			r = hook(v, m)
		}
		if d.layers != nil {
			r = d.layers.serverSide(r)
		}
		srv, serr := node.ServeParticipant(context.Background(), "127.0.0.1:0", r)
		if serr != nil {
			return d, serr
		}
		d.servers = append(d.servers, srv)
		d.addrs[v] = srv.Addr()
	}
	d.dir = node.DirectoryResolver(d.addrs, node.WithTimeout(rpcTimeout))

	var journal *events.Journal
	if sp.journal {
		d.eventDir = filepath.Join(workDir, "events")
		if journal, err = events.OpenJournal(d.eventDir, events.JournalOptions{}); err != nil {
			return d, err
		}
	}
	d.sink = events.NewSink("proxy", events.NewRing(512), journal)
	cfg := sp.proxy
	cfg.EventSink = d.sink
	resolve := d.dir.Resolver()
	if d.layers != nil {
		resolve = d.layers.proxySide(resolve)
	}
	d.proxy = core.NewProxyWithConfig(d.ps, reputation.DefaultStrategy(), resolve, cfg)
	if d.proxySrv, err = node.ServeProxy(context.Background(), "127.0.0.1:0", d.proxy); err != nil {
		return d, err
	}
	d.client = node.NewProxyClient(d.proxySrv.Addr(), node.WithTimeout(rpcTimeout), node.WithPoolSize(4))
	return d, nil
}

// distribute runs one distribution task end to end — products flow through
// the supply chain, every involved member commits, and the POC list is
// registered with the proxy over the wire — and records its ground truth.
func (d *deployment) distribute(ctx context.Context, t taskSpec) (ingest, error) {
	start := time.Now()
	tags, err := supplychain.MintTags(t.id+"-", t.products)
	if err != nil {
		return ingest{}, err
	}
	parts := make(map[poc.ParticipantID]*supplychain.Participant, len(d.members))
	for v, m := range d.members {
		parts[v] = m.Participant()
	}
	ground, err := supplychain.RunTask(d.graph, parts, t.initial, tags, nil, supplychain.RoundRobinSplitter)
	if err != nil {
		return ingest{}, err
	}
	in := ingest{commits: len(ground.Involved)}
	for _, v := range ground.Involved {
		in.traces += parts[v].TraceCount()
	}
	commitStart := time.Now()
	list, err := core.BuildPOCList(d.members, ground, t.id)
	if err != nil {
		return ingest{}, err
	}
	in.commit = time.Since(commitStart)
	if err := d.client.RegisterList(ctx, t.id, list); err != nil {
		return ingest{}, fmt.Errorf("registering %s: %w", t.id, err)
	}
	in.total = time.Since(start)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.lists[t.id] = list
	for _, tag := range tags {
		id := poc.ProductID(tag.ID())
		d.truth[id] = truth{task: t.id, path: ground.Paths[id]}
		d.products = append(d.products, id)
	}
	d.ingests = append(d.ingests, in)
	return in, nil
}

// registered returns a snapshot of the queryable products, in registration
// order.
func (d *deployment) registered() []poc.ProductID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]poc.ProductID(nil), d.products...)
}

// groundTruth returns a product's recorded outcome; ok is false for ids
// that were never distributed (counterfeits).
func (d *deployment) groundTruth(id poc.ProductID) (truth, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.truth[id]
	return t, ok
}

// list returns a registered task's POC list.
func (d *deployment) list(task string) *poc.List {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lists[task]
}

// close stops every server and client the deployment started and removes
// its on-disk state.
func (d *deployment) close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	if d.proxySrv != nil {
		_ = d.proxySrv.Close()
	}
	for _, s := range d.servers {
		_ = s.Close()
	}
	if d.dir != nil {
		_ = d.dir.Close()
	}
	if d.sink != nil {
		_ = d.sink.Close()
	}
	if d.workDir != "" {
		_ = os.RemoveAll(d.workDir)
	}
}
