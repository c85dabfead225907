package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"erms"
	"erms/internal/federation"
	"erms/internal/invariant"
	"erms/internal/server"
	"erms/internal/sim"
)

// federated-churn: a 4-shard federation with journals on, driven through
// the facade. Each batch issues reads, cross-shard and same-shard renames,
// deletes and creates, then runs a fixed interval of virtual time. One
// datanode crashes and later restarts; the session drains until repair
// completes. /metrics is scraped through the control-plane handler.
const (
	fedShards      = 4
	fedCatalog     = 400
	fedReads       = 96 // whole-file reads per batch, Zipf-skewed
	fedCross       = 4  // cross-shard renames per batch
	fedSame        = 4  // same-shard renames per batch
	fedChurn       = 8  // deletes per batch, each refilled by a create
	fedRecent      = 3  // batches a read keeps its file off-limits to renames and deletes
	fedWarmup      = 15 // batches run during set-up (5 virtual minutes)
	fedTimed       = 240
	fedInterval    = 20 * time.Second
	fedScrapeEvery = 5
	fedCrashAt     = 60  // timed batch after which the victim datanode crashes
	fedRestartAt   = 120 // timed batch after which it restarts, empty
	fedMaxDrain    = 360 // drain intervals before giving up
	fedNodes       = 18
	fedActive      = 10 // nodes below this are active; the rest are the standby pool
	fedVictim      = 3  // the datanode that crashes
	fedMinMB       = 64
	fedMaxMB       = 192
	fedZipfSkew    = 1.1
)

// fedOp is one facade call of a federated-churn batch.
type fedOp struct {
	Op     string // read, rename, delete, create
	Path   string
	Dst    string `json:",omitempty"` // rename destination
	SizeMB int    `json:",omitempty"` // create size
	Client int    `json:",omitempty"` // read client node
}

// fedBatch is one batch: its ops in order, then an optional datanode
// crash ("kill") or restart of Node, then fedInterval of virtual time.
type fedBatch struct {
	Ops   []fedOp
	Event string `json:",omitempty"`
	Node  int    `json:",omitempty"`
}

// fedPlan is the whole generated input of a federated-churn session: the
// fixed catalog and an op stream drawn from the seed.
type fedPlan struct {
	Catalog []catalogFile
	Batches []fedBatch
}

// makeFederatedPlan generates the op stream. A file read in one of the
// last fedRecent batches is never renamed or deleted, and a batch never
// reads a file it renames or deletes, so no cross-shard move deletes a
// source under an in-flight read. Renames pick destinations with the
// pinned router so every batch has fedCross cross-shard and fedSame
// same-shard moves.
func makeFederatedPlan(seed int64) *fedPlan {
	cat := sim.NewRand(catalogSeed)
	rng := sim.NewRand(seed)
	router := federation.New(fedShards)
	size := func(rng *rand.Rand) int { return fedMinMB + 16*rng.Intn((fedMaxMB-fedMinMB)/16+1) }
	p := &fedPlan{}
	slots := make([]string, fedCatalog) // slot -> current path
	lastRead := make([]int, fedCatalog)
	for i := range slots {
		slots[i] = fmt.Sprintf("/fed/c%04d", i)
		p.Catalog = append(p.Catalog, catalogFile{Path: slots[i], SizeMB: size(cat)})
		lastRead[i] = -fedRecent - 1
	}
	rank := cat.Perm(fedCatalog)
	zipf := sim.NewZipf(rng, fedZipfSkew, fedCatalog)
	next := 0
	name := func(prefix string) string {
		next++
		return fmt.Sprintf("/fed/%s%06d", prefix, next)
	}
	for b := 0; b < fedWarmup+fedTimed; b++ {
		busy := map[int]bool{}
		pick := func() int {
			for {
				i := rng.Intn(fedCatalog)
				if !busy[i] && lastRead[i] < b-fedRecent {
					busy[i] = true
					return i
				}
			}
		}
		var renames, churn []fedOp
		for k := 0; k < fedCross+fedSame; k++ {
			i := pick()
			src, cross := slots[i], k < fedCross
			dst := name("m")
			for (router.Shard(dst) != router.Shard(src)) != cross {
				dst = name("m")
			}
			renames = append(renames, fedOp{Op: "rename", Path: src, Dst: dst})
			slots[i] = dst
		}
		for k := 0; k < fedChurn; k++ {
			i := pick()
			churn = append(churn, fedOp{Op: "delete", Path: slots[i]})
			slots[i] = name("n")
			churn = append(churn, fedOp{Op: "create", Path: slots[i], SizeMB: size(rng)})
		}
		var ops []fedOp
		for k := 0; k < fedReads; k++ {
			i := rank[zipf.Draw()]
			for busy[i] {
				i = rank[zipf.Draw()]
			}
			lastRead[i] = b
			client := rng.Intn(fedNodes - 1)
			if client >= fedVictim {
				client++ // the victim never reads, so a crash cannot kill a client
			}
			ops = append(ops, fedOp{Op: "read", Path: slots[i], Client: client})
		}
		batch := fedBatch{Ops: append(append(ops, renames...), churn...)}
		switch b - fedWarmup {
		case fedCrashAt:
			batch.Event, batch.Node = "kill", fedVictim
		case fedRestartAt:
			batch.Event, batch.Node = "restart", fedVictim
		}
		p.Batches = append(p.Batches, batch)
	}
	return p
}

type fedSession struct {
	seed  int64
	plan  *fedPlan
	sys   *erms.System
	srv   *server.Server
	files map[string]int // model namespace: path -> MB
	user  float64
	reads readModel

	readsDone, readsFailed int
	tpSum                  float64
	batch                  int // next timed batch
	attempted, failed      int
	scrapes                int
	scrapeBytes            float64
	series                 int
	layer                  map[string]float64 // timed-phase counters
	storage                ratioMean
}

func newFederatedSession(seed int64) session {
	return &fedSession{seed: seed, files: map[string]int{}, layer: map[string]float64{}}
}

func (s *fedSession) setup(r *run) error {
	s.plan = makeFederatedPlan(s.seed)
	s.sys = erms.NewSystem(erms.Options{Shards: fedShards, EnableJournal: true})
	for i, f := range s.plan.Catalog {
		if err := s.sys.CreateFileOn(f.Path, float64(f.SizeMB)*erms.MB, 0, i%fedActive); err != nil {
			return fmt.Errorf("preloading %s: %w", f.Path, err)
		}
		s.files[f.Path] = f.SizeMB
		s.user += float64(f.SizeMB) * erms.MB
	}
	s.srv = server.New(s.sys)
	for b := 0; b < fedWarmup; b++ {
		s.run(r, b, false)
	}
	return nil
}

func (s *fedSession) onRead(res *erms.ReadResult) {
	if res.Err != nil {
		s.readsFailed++
		return
	}
	s.readsDone++
	s.tpSum += res.ThroughputMBps()
}

// run executes batch b through the facade and checks every rename.
func (s *fedSession) run(r *run, b int, timed bool) {
	bt := s.plan.Batches[b]
	var renamed []fedOp
	work := func() {
		i := 0
		issue := r.timed("issue", func() {
			for ; i < len(bt.Ops) && bt.Ops[i].Op == "read"; i++ {
				op := bt.Ops[i]
				s.reads.add(float64(s.files[op.Path]) * erms.MB)
				s.sys.Read(op.Client, op.Path, s.onRead)
			}
		})
		for _, op := range bt.Ops[i:] {
			var err error
			switch op.Op {
			case "rename":
				d := r.timed("rename", func() { err = s.sys.Rename(op.Path, op.Dst) })
				if timed {
					s.layer["federation.renames"]++
					s.layer["federation.rename_ms"] += ms(d)
					if s.sys.Router().Shard(op.Path) != s.sys.Router().Shard(op.Dst) {
						s.layer["federation.cross_shard_moves"]++
					}
				}
				renamed = append(renamed, op)
			case "delete":
				err = s.sys.Delete(op.Path)
			case "create":
				err = s.sys.CreateFileOn(op.Path, float64(op.SizeMB)*erms.MB, 0, b%fedActive)
			}
			if err != nil {
				s.failed++
				r.violate("batch %d: %s %s: %v", b, op.Op, op.Path, err)
			}
		}
		switch bt.Event {
		case "kill":
			s.sys.KillNode(bt.Node)
		case "restart":
			s.sys.RestartNode(bt.Node)
		}
		adv := r.timed("advance", func() { s.sys.RunFor(fedInterval) })
		if timed {
			s.layer["hdfs.issue_ms"] += ms(issue)
			s.layer["sim.advance_s"] += adv.Seconds()
		}
	}
	if timed {
		r.step("batch", work)
		s.attempted += len(bt.Ops)
	} else {
		work()
	}
	for _, op := range bt.Ops {
		switch op.Op {
		case "rename":
			s.files[op.Dst] = s.files[op.Path]
			delete(s.files, op.Path)
		case "delete":
			s.user -= float64(s.files[op.Path]) * erms.MB
			delete(s.files, op.Path)
		case "create":
			s.files[op.Path] = op.SizeMB
			s.user += float64(op.SizeMB) * erms.MB
		}
	}
	for _, op := range renamed {
		if s.sys.Shard(s.sys.Router().Shard(op.Dst)).HDFS().File(op.Dst) == nil {
			r.violate("batch %d: rename %s -> %s: destination missing", b, op.Path, op.Dst)
		}
		for i := 0; i < s.sys.Shards(); i++ {
			if s.sys.Shard(i).HDFS().File(op.Path) != nil {
				r.violate("batch %d: rename %s -> %s: source still in shard %d", b, op.Path, op.Dst, i)
			}
		}
	}
}

func (s *fedSession) step(r *run) bool {
	if s.batch >= fedTimed {
		return false
	}
	s.run(r, fedWarmup+s.batch, true)
	s.storage.add(s.sys.StorageUsed(), s.user)
	s.batch++
	if s.batch%fedScrapeEvery == 0 {
		s.scrape(r)
	}
	return true
}

// scrape renders /metrics through the control-plane handler. The scrape
// succeeds only when it reports the namespace size and completed reads
// of every shard; a scrape that shows less counts as a failed operation.
func (s *fedSession) scrape(r *run) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	r.scrape("scrape", func() { s.srv.Handler().ServeHTTP(w, req) })
	s.attempted++
	s.scrapes++
	body := w.Body.Bytes()
	s.scrapeBytes += float64(len(body))
	s.series = promSeries(body)
	var files, reads float64
	for i := 0; i < s.sys.Shards(); i++ {
		c := s.sys.Shard(i).HDFS()
		files += float64(c.Files())
		reads += float64(c.Metrics().ReadsCompleted)
	}
	if files != float64(len(s.files)) {
		r.violate("after batch %d: shards hold %v files, model has %d", s.batch, files, len(s.files))
	}
	if w.Code != http.StatusOK || len(checkScrapeTotals(body, files, reads)) > 0 {
		s.failed++
	}
}

func (s *fedSession) counters() map[string]float64 {
	c := systemCounters(s.sys)
	for k, v := range s.layer {
		c[k] = v
	}
	return c
}

// settled reports whether every read has returned, ERMS is idle and
// every shard has finished repairing.
func (s *fedSession) settled() bool {
	if s.readsDone+s.readsFailed < s.reads.Issued || !ermsIdle(s.sys) {
		return false
	}
	for i := 0; i < s.sys.Shards(); i++ {
		sh := s.sys.Shard(i)
		if len(sh.HDFS().UnderReplicated()) > 0 || sh.Manager().ActiveRepairJobs() > 0 {
			return false
		}
	}
	return true
}

func (s *fedSession) finish(r *run) outcome {
	for n := 0; !s.settled(); n++ {
		if n >= fedMaxDrain {
			r.violate("federated: not settled after %d drain intervals: %d of %d reads returned",
				fedMaxDrain, s.readsDone+s.readsFailed, s.reads.Issued)
			break
		}
		s.sys.RunFor(fedInterval)
	}
	if s.readsFailed > 0 {
		r.violate("federated: %d reads failed", s.readsFailed)
	}
	for _, v := range checkReads(s.reads, s.sys.Metrics()) {
		r.violate("federated %s", v)
	}
	listers := make([]invariant.Lister, s.sys.Shards())
	expected := map[string]bool{}
	for p := range s.files {
		expected[p] = true
	}
	total := 0
	for i := range listers {
		c := s.sys.Shard(i).HDFS()
		listers[i] = c
		total += c.Files()
		if n := len(c.PendingMoves()); n > 0 {
			r.violate("federated: shard %d has %d moves pending", i, n)
		}
		if n := len(c.UnderReplicated()); n > 0 {
			r.violate("federated: shard %d has %d under-replicated blocks after repair", i, n)
		}
		for _, v := range c.ConsistencyErrors() {
			r.violate("federated shard %d consistency: %s", i, v)
		}
	}
	router := s.sys.Router()
	for _, v := range invariant.CheckFederation(invariant.FederationTarget{
		Shards:   listers,
		Owner:    router.Shard,
		Exempt:   func(p string) bool { return strings.HasPrefix(p, erms.MoveStagePrefix) },
		Expected: expected,
	}) {
		r.violate("%s", v)
	}
	if total != len(s.files) {
		r.violate("federated: shards hold %d files, model has %d", total, len(s.files))
	}
	maxRepl := erms.DefaultThresholds().MaxReplication
	for _, v := range checkStored(s.sys.StorageUsed(), s.user, maxRepl) {
		r.violate("federated %s", v)
	}
	out := outcome{
		storageRatio: s.storage.value(),
		digest:       s.sys.StateDigest(),
		ops:          s.attempted - s.scrapes,
		attempted:    s.attempted,
		failed:       s.failed,
	}
	if s.readsDone > 0 {
		out.readMBps = s.tpSum / float64(s.readsDone)
	}
	r.addLayer("metrics.scrape_bytes", s.scrapeBytes/float64(s.scrapes))
	r.addLayer("metrics.series", float64(s.series))
	addGrowth(r, s.sys)
	out.heapMB = heapInUseMB()
	s.sys.Stop()
	return out
}
