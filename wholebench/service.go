package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"erms"
	"erms/internal/invariant"
	"erms/internal/server"
	"erms/internal/sim"
)

// service-ops: the ermsd control plane — an internal/server handler on a
// loopback listener over a classic system with the journal and the
// heartbeat detector on, as `ermsd -journal` runs it, but paced by a
// simulated wall clock. One client runs a closed loop: it posts a batch,
// waits for the reply, and the wall clock then moves svcInterval, so the
// offered load is fixed in simulated time whatever the host speed.
const (
	svcCatalog     = 200              // preloaded files, read Zipf-skewed
	svcFileMB      = 128              // size of every catalog file
	svcBatch       = 100              // ops per /v1/ops batch
	svcReads       = 70               // whole-file reads per batch
	svcRanged      = 20               // ranged reads per batch
	svcChurn       = 5                // creates and deletes per batch
	svcChurnLag    = 20               // batches a created file lives before its delete
	svcWarmup      = 10               // batches run during set-up
	svcTimed       = 500              // batches timed per session
	svcInterval    = 60 * time.Second // virtual time between batches
	svcScrapeEvery = 10               // batches between /metrics + /v1/status scrapes
	svcMaxDrain    = 120              // drain intervals before giving up
	svcZipfSkew    = 1.1              // popularity skew of catalog reads
	svcRangeMaxMB  = 32               // longest ranged read
	svcChurnMinMB  = 64               // churn file sizes, in 16 MB steps
	svcChurnMaxMB  = 192
	svcNodes       = 18 // classic testbed size; clients are nodes
)

const (
	svcOpsPath     = "/v1/ops"
	svcMetricsPath = "/metrics"
	svcStatusPath  = "/v1/status"
	svcDrainPath   = "/v1/drain"
	svcCatalogFmt  = "/svc/cat/%04d"
	svcChurnFmt    = "/svc/churn/%06d"
)

// catalogFile is one file the generator creates.
type catalogFile struct {
	Path   string
	SizeMB int
}

// svcPlan is the whole generated input of a service-ops session: the
// catalog preloaded through the facade and the batches posted over HTTP.
// It is a pure function of the seed.
type svcPlan struct {
	Catalog []catalogFile // read by the batches
	Churn   []catalogFile // preloaded churn files the first deletes remove
	Batches [][]server.Op // svcWarmup set-up batches, then svcTimed timed ones
}

// makeServicePlan generates the op stream. Reads go to catalog files
// only and deletes to churn files only, so no delete races a read.
func makeServicePlan(seed int64) *svcPlan {
	rng := sim.NewRand(seed)
	p := &svcPlan{}
	for i := 0; i < svcCatalog; i++ {
		p.Catalog = append(p.Catalog, catalogFile{Path: fmt.Sprintf(svcCatalogFmt, i), SizeMB: svcFileMB})
	}
	// Popularity rank -> catalog file. The catalog, its ranks included, is
	// part of the workload's definition; the seed draws the op stream.
	rank := sim.NewRand(catalogSeed).Perm(svcCatalog)
	zipf := sim.NewZipf(rng, svcZipfSkew, svcCatalog)
	churnSize := func() int {
		return svcChurnMinMB + 16*rng.Intn((svcChurnMaxMB-svcChurnMinMB)/16+1)
	}
	next := 0
	var queue []string // live churn files, oldest first
	newChurn := func() catalogFile {
		f := catalogFile{Path: fmt.Sprintf(svcChurnFmt, next), SizeMB: churnSize()}
		next++
		queue = append(queue, f.Path)
		return f
	}
	for i := 0; i < svcChurn*svcChurnLag; i++ {
		p.Churn = append(p.Churn, newChurn())
	}
	for b := 0; b < svcWarmup+svcTimed; b++ {
		ops := make([]server.Op, 0, svcBatch)
		for i := 0; i < svcReads; i++ {
			f := p.Catalog[rank[zipf.Draw()]]
			ops = append(ops, server.Op{Op: "read", Path: f.Path, Client: rng.Intn(svcNodes)})
		}
		for i := 0; i < svcRanged; i++ {
			f := p.Catalog[rank[zipf.Draw()]]
			length := 1 + rng.Intn(svcRangeMaxMB)
			offset := rng.Intn(f.SizeMB - length + 1)
			ops = append(ops, server.Op{Op: "readrange", Path: f.Path, Client: rng.Intn(svcNodes),
				OffsetMB: float64(offset), LengthMB: float64(length)})
		}
		for i := 0; i < svcChurn; i++ {
			ops = append(ops, server.Op{Op: "delete", Path: queue[0]})
			queue = queue[1:]
			f := newChurn()
			ops = append(ops, server.Op{Op: "create", Path: f.Path, SizeMB: float64(f.SizeMB), Client: rng.Intn(svcNodes)})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.Batches = append(p.Batches, ops)
	}
	return p
}

// svcModel is the benchmark's own account of a service-ops session: the
// namespace it built and the reads it asked for.
type svcModel struct {
	files map[string]int // path -> size in MB
	reads readModel
	user  float64 // bytes of user data in files
}

func newSvcModel() *svcModel { return &svcModel{files: map[string]int{}} }

// apply accounts one op the program accepted.
func (m *svcModel) apply(op server.Op) {
	switch op.Op {
	case "create":
		m.files[op.Path] = int(op.SizeMB)
		m.user += op.SizeMB * erms.MB
	case "delete":
		m.user -= float64(m.files[op.Path]) * erms.MB
		delete(m.files, op.Path)
	case "read":
		m.reads.add(float64(m.files[op.Path]) * erms.MB)
	case "readrange":
		m.reads.add(op.LengthMB * erms.MB)
	}
}

// serviceOptions mirrors `ermsd -journal` (heartbeat detector on) with a
// wall clock the caller supplies; nil builds the pure simulation the
// facade shadow replays on.
func serviceOptions(clock erms.WallClock) erms.Options {
	return erms.Options{
		Clock:         clock,
		EnableJournal: true,
		Heartbeat: erms.HeartbeatConfig{
			Enabled:      true,
			Interval:     3 * time.Second,
			StaleTimeout: 30 * time.Second,
			DeadTimeout:  10 * time.Minute,
		},
	}
}

// preload creates the plan's catalog and churn files through the facade.
func (p *svcPlan) preload(sys *erms.System, m *svcModel) error {
	for i, f := range append(append([]catalogFile(nil), p.Catalog...), p.Churn...) {
		if err := sys.CreateFileOn(f.Path, float64(f.SizeMB)*erms.MB, 0, i%svcNodes); err != nil {
			return fmt.Errorf("preloading %s: %w", f.Path, err)
		}
		m.apply(server.Op{Op: "create", Path: f.Path, SizeMB: float64(f.SizeMB)})
	}
	return nil
}

// guard wraps the control-plane handler. Its mutex orders every access
// the benchmark makes to the system and the simulated wall clock against
// the server's request goroutine. It times ServeHTTP; in a traced run it
// first catches the system up to the wall clock itself, so the advance
// and the handler's own work are timed apart.
type guard struct {
	mu        sync.Mutex
	next      http.Handler
	sys       *erms.System
	split     bool
	advance   time.Duration // of the last /v1/ops request
	handler   time.Duration
	handlerAt time.Time
}

func (g *guard) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.advance = 0
	start := time.Now()
	if g.split && req.URL.Path == svcOpsPath {
		g.sys.CatchUp()
		g.advance = time.Since(start)
	}
	g.handlerAt = time.Now()
	g.next.ServeHTTP(w, req)
	g.handler = time.Since(g.handlerAt)
}

type serviceSession struct {
	seed   int64
	plan   *svcPlan
	model  *svcModel
	wall   *sim.SimClock
	sys    *erms.System
	guard  *guard
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	bodies [][]byte

	batch       int // next timed batch
	attempted   int
	failed      int
	scrapes     int
	scrapeBytes float64
	series      int
	reqBytes    float64
	layer       map[string]float64 // traced splits, zero until timed
	storage     ratioMean
}

func newServiceSession(seed int64) session {
	return &serviceSession{seed: seed, layer: map[string]float64{}}
}

func (s *serviceSession) setup(r *run) error {
	s.plan = makeServicePlan(s.seed)
	s.model = newSvcModel()
	for _, ops := range s.plan.Batches {
		body, err := json.Marshal(server.OpsRequest{Ops: ops})
		if err != nil {
			return err
		}
		s.bodies = append(s.bodies, body)
	}
	s.wall = sim.NewSimClock(sim.NewEngine())
	s.sys = erms.NewSystem(serviceOptions(s.wall))
	if err := s.plan.preload(s.sys, s.model); err != nil {
		return err
	}
	s.guard = &guard{next: server.New(s.sys).Handler(), sys: s.sys, split: r.traced}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.guard}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	for b := 0; b < svcWarmup; b++ {
		if err := s.post(r, b, false); err != nil {
			return err
		}
		s.advance()
	}
	return nil
}

// post sends batch b, checks the reply and updates the model. Timed
// batches are steps.
func (s *serviceSession) post(r *run, b int, timed bool) error {
	var code int
	var resp server.OpsResponse
	var err error
	send := func() { code, err = s.do(http.MethodPost, svcOpsPath, s.bodies[b], &resp) }
	if timed {
		id := r.rec.nextID()
		s.traceRequest(r, id, r.step("batch", send))
		s.reqBytes += float64(len(s.bodies[b]))
		s.attempted += len(s.plan.Batches[b])
		s.failed += resp.Failed
	} else {
		send()
	}
	if err != nil {
		return fmt.Errorf("posting batch %d: %w", b, err)
	}
	for _, v := range checkBatch(code, resp, len(s.plan.Batches[b])) {
		r.violate("batch %d: %s", b, v)
	}
	for _, op := range s.plan.Batches[b] {
		s.model.apply(op)
	}
	return nil
}

// advance moves the simulated wall clock on by one interval; the next
// request catches the system up.
func (s *serviceSession) advance() {
	s.guard.mu.Lock()
	s.wall.Advance(svcInterval)
	s.guard.mu.Unlock()
}

// traceRequest records the server-side split of the last request: the
// client round trip, and inside it the catch-up and the handler.
func (s *serviceSession) traceRequest(r *run, batch int32, roundtrip time.Duration) {
	s.guard.mu.Lock()
	advance, handler, at := s.guard.advance, s.guard.handler, s.guard.handlerAt
	s.guard.mu.Unlock()
	r.roundtrips = append(r.roundtrips, ms(roundtrip))
	r.handlers = append(r.handlers, ms(handler))
	if r.traced {
		r.rec.addChild(batch, "advance", at.Add(-advance), advance)
		r.rec.addChild(batch, "handler", at, handler)
		s.layer["sim.advance_s"] += advance.Seconds()
		s.layer["hdfs.issue_ms"] += ms(handler)
	}
}

// do sends one request on the single client connection and decodes a
// JSON reply into out when out is non-nil.
func (s *serviceSession) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	// Reading to EOF lets the transport reuse the one connection.
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || out == nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (s *serviceSession) step(r *run) bool {
	if s.batch >= svcTimed {
		return false
	}
	b := svcWarmup + s.batch
	s.batch++
	if err := s.post(r, b, true); err != nil {
		r.violate("%v", err)
		return false
	}
	if s.batch%svcScrapeEvery == 0 {
		s.scrape(r)
	}
	s.guard.mu.Lock()
	s.storage.add(s.sys.StorageUsed(), s.model.user)
	s.guard.mu.Unlock()
	s.advance()
	return true
}

// scrape reads /metrics (timed as the scrape) and /v1/status right after
// a batch, before the wall clock moves, so neither has virtual time to
// catch up; it checks the status against the model.
func (s *serviceSession) scrape(r *run) {
	var body []byte
	var code int
	var err error
	r.scrape("scrape", func() {
		var resp *http.Response
		if resp, err = s.client.Get(s.base + svcMetricsPath); err == nil {
			code = resp.StatusCode
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	})
	s.attempted += 2
	s.scrapes++
	s.scrapeBytes += float64(len(body))
	s.series = promSeries(body)
	if _, ok := promValue(body, "hdfs_reads_started_total"); err != nil || code != http.StatusOK || !ok {
		s.failed++
		r.violate("metrics scrape after batch %d: status %d, err %v", s.batch, code, err)
	}
	var st server.StatusResponse
	r.timed("status", func() { code, err = s.do(http.MethodGet, svcStatusPath, nil, &st) })
	if err != nil || code != http.StatusOK || st.Files != len(s.model.files) {
		s.failed++
		r.violate("status after batch %d: status %d, err %v, files %d, model has %d", s.batch, code, err, st.Files, len(s.model.files))
	}
}

func (s *serviceSession) counters() map[string]float64 {
	s.guard.mu.Lock()
	defer s.guard.mu.Unlock()
	c := systemCounters(s.sys)
	for k, v := range s.layer {
		c[k] = v
	}
	return c
}

func (s *serviceSession) finish(r *run) outcome {
	if code, err := s.do(http.MethodPost, svcDrainPath, nil, nil); err != nil || code != http.StatusOK {
		r.violate("drain: status %d, err %v", code, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		r.violate("shutting the control plane down: %v", err)
	}
	if err := <-s.served; err != http.ErrServerClosed {
		r.violate("control plane stopped with %v", err)
	}
	s.client.CloseIdleConnections()
	// The server goroutine has ended; the system is the benchmark's alone.
	drains := svcDrain(s.sys, func() { s.wall.Advance(svcInterval); s.sys.CatchUp() })
	if drains > svcMaxDrain {
		r.violate("service: %d reads active or ERMS busy after %d drain intervals", s.sys.HDFS().ActiveReads(), svcMaxDrain)
	}
	for _, v := range checkReads(s.model.reads, s.sys.Metrics()) {
		r.violate("service %s", v)
	}
	if got := s.sys.HDFS().Files(); got != len(s.model.files) {
		r.violate("service: %d files, model has %d", got, len(s.model.files))
	}
	maxRepl := erms.DefaultThresholds().MaxReplication
	for _, v := range checkStored(s.sys.StorageUsed(), s.model.user, maxRepl) {
		r.violate("service %s", v)
	}
	for _, v := range s.sys.HDFS().ConsistencyErrors() {
		r.violate("service consistency: %s", v)
	}
	for _, v := range invariant.Check(invariant.Target{Cluster: s.sys.HDFS(), Manager: s.sys.Manager()}) {
		r.violate("service invariant: %s", v)
	}
	out := outcome{
		storageRatio: s.storage.value(),
		digest:       s.sys.StateDigest(),
		ops:          svcTimed * svcBatch,
		attempted:    s.attempted,
		failed:       s.failed,
	}
	if len(r.outcomes) < streams {
		// Per-read throughput is not visible through HTTP, so the first
		// session of each stream replays its op stream through the facade,
		// with read callbacks, on a pure simulation; it must end in the
		// same state.
		mbps, digest, m := s.shadow(drains)
		out.readMBps = mbps
		if digest != out.digest || m != s.sys.Metrics() {
			r.violate("service: facade replay of the op stream diverged from the HTTP run (digest %x vs %x)", digest, out.digest)
		}
	} else {
		out.readMBps = r.outcomes[r.sessions%streams].readMBps
	}
	r.addLayer("server.request_bytes", s.reqBytes/svcTimed)
	r.addLayer("metrics.scrape_bytes", s.scrapeBytes/float64(s.scrapes))
	r.addLayer("metrics.series", float64(s.series))
	addGrowth(r, s.sys)
	out.heapMB = heapInUseMB()
	s.sys.Stop()
	return out
}

// svcDrain advances one drain interval at a time until no read is active
// and ERMS is idle, returning the intervals used (svcMaxDrain+1 when it
// gave up).
func svcDrain(sys *erms.System, advance func()) int {
	n := 0
	for sys.HDFS().ActiveReads() > 0 || !ermsIdle(sys) {
		if n > svcMaxDrain {
			break
		}
		advance()
		n++
	}
	return n
}

// shadow replays the session's op stream through the facade at the same
// virtual instants and drains it the same way, returning the mean
// simulated throughput of its reads, the final state digest and the
// storage metrics.
func (s *serviceSession) shadow(drains int) (float64, uint64, erms.HDFSMetrics) {
	sys := erms.NewSystem(serviceOptions(nil))
	defer sys.Stop()
	_ = s.plan.preload(sys, newSvcModel()) // the same preload just succeeded
	var sum float64
	var n int
	for b, ops := range s.plan.Batches {
		sys.RunUntil(time.Duration(b) * svcInterval) // batch b is posted at b intervals
		done := func(res *erms.ReadResult) {
			if res.Err == nil {
				sum += res.ThroughputMBps()
				n++
			}
		}
		for _, op := range ops {
			switch op.Op {
			case "create":
				_ = sys.CreateFileOn(op.Path, op.SizeMB*erms.MB, op.Repl, op.Client)
			case "read":
				sys.Read(op.Client, op.Path, done)
			case "readrange":
				sys.ReadRange(op.Client, op.Path, op.OffsetMB*erms.MB, op.LengthMB*erms.MB, done)
			case "delete":
				_ = sys.Delete(op.Path)
			}
		}
	}
	sys.RunUntil(time.Duration(len(s.plan.Batches)) * svcInterval) // the drain request's catch-up
	for i := 0; i < drains; i++ {
		sys.RunFor(svcInterval)
	}
	if n == 0 {
		return 0, sys.StateDigest(), sys.Metrics()
	}
	return sum / float64(n), sys.StateDigest(), sys.Metrics()
}
