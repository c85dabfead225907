package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"erms"
	"erms/internal/invariant"
	"erms/internal/server"
	"erms/internal/sim"
	"erms/internal/workload"
)

// mapred-replay: a classic 18-node ERMS cluster with every node active,
// τ_M = 4 and FIFO — Fig. 3's strongest series — replays a multi-hour
// SWIM-style trace as MapReduce jobs. The benchmark advances virtual time
// in fixed slices; each slice is one step.
const (
	mrTraceLength  = 3 * time.Hour
	mrFiles        = 30
	mrInterarrival = 4 * time.Second
	mrZipfSkew     = 1.1
	mrHalfLife     = 90 * time.Minute
	mrComputePerMB = 8 * time.Millisecond
	mrNodes        = 18
	mrWarmup       = 10 * time.Minute // two judge windows
	mrSlice        = 10 * time.Second
	mrScrapeEvery  = 30 // slices
	// mrMaxDrain bounds how long past the trace the jobs may take, and
	// mrMaxIdle how many slices ERMS may then take to go idle.
	mrMaxDrain = 2 * time.Hour
	mrMaxIdle  = 360
)

// mapredTrace generates the workload's input: Fig. 3's trace shape — a
// job every ~4 s over a 30-file catalog of files up to 1 GB — stretched
// to mrTraceLength. The catalog (sizes, creation times, popularity ranks)
// comes from the program's SWIM-style synthesizer at catalogSeed. The job
// stream follows the synthesizer's rules: Poisson arrivals, Zipf
// popularity over rank, and a file's pull halving every mrHalfLife of its
// age.
func mapredTrace(seed int64) *erms.Trace {
	tr := erms.SynthesizeWorkload(erms.WorkloadConfig{
		Seed:             catalogSeed,
		Duration:         mrTraceLength,
		NumFiles:         mrFiles,
		MeanInterarrival: mrInterarrival,
		MaxFileSize:      erms.GB,
	})
	tr.Seed, tr.Jobs = seed, nil
	// The warm-up's jobs are part of the definition too, so set-up does
	// the same work in every run; the seed draws the rest.
	rng, stream := sim.NewRand(catalogSeed), sim.NewRand(seed)
	decay := math.Ln2 / mrHalfLife.Seconds()
	weights := make([]float64, len(tr.Files))
	for now := time.Duration(0); ; {
		if now >= mrWarmup {
			rng = stream
		}
		now += time.Duration(rng.ExpFloat64() * float64(mrInterarrival))
		if now >= tr.Duration {
			break
		}
		total := 0.0
		for i, f := range tr.Files {
			weights[i] = 0
			if f.CreateAt <= now {
				weights[i] = math.Pow(float64(f.Rank+1), -mrZipfSkew) * math.Exp(-decay*(now-f.CreateAt).Seconds())
				total += weights[i]
			}
		}
		u, pick := rng.Float64()*total, -1
		for i, w := range weights {
			if w > 0 {
				pick = i
				if u -= w; u <= 0 {
					break
				}
			}
		}
		tr.Jobs = append(tr.Jobs, workload.JobSpec{
			Submit:  now,
			File:    tr.Files[pick].Path,
			Name:    fmt.Sprintf("job%04d", len(tr.Jobs)+1),
			Client:  rng.Intn(mrNodes),
			Compute: mrComputePerMB,
		})
	}
	return tr
}

type mapredSession struct {
	seed    int64
	trace   *erms.Trace
	sys     *erms.System
	srv     *server.Server
	done    []jobRecord
	timed   bool // set once the warm-up is over
	ops     int  // jobs finished in the timed phase
	slices  int
	scrapes int
	// Scrape figures, reported as a mean size and the last series count.
	scrapeBytes float64
	series      int
	layer       map[string]float64 // job-derived counters, zero until timed
	storage     ratioMean
}

// userBytes is the size of the trace files created by now.
func (s *mapredSession) userBytes() float64 {
	var user float64
	for _, f := range s.trace.Files {
		if f.CreateAt <= s.sys.Now() {
			user += f.Size
		}
	}
	return user
}

func newMapredSession(seed int64) session {
	return &mapredSession{seed: seed, layer: map[string]float64{}}
}

func (s *mapredSession) setup(r *run) error {
	s.trace = mapredTrace(s.seed)
	s.sys = erms.NewSystem(erms.Options{
		StandbyNodes: -1,
		Scheduler:    "fifo",
		Thresholds:   erms.Thresholds{TauM: 4, Window: 5 * time.Minute, ColdAge: 24 * time.Hour},
		JudgePeriod:  time.Minute,
	})
	s.srv = server.New(s.sys)
	s.sys.Preload(s.trace)
	s.sys.ReplayJobs(s.trace, func(j *erms.Job) {
		s.done = append(s.done, jobRecord{Name: j.Name, Err: j.Err, ReadMBps: j.ReadThroughputMBps()})
		if s.timed {
			s.ops++
			s.layer["mapred.jobs"]++
			s.layer["mapred.tasks"] += float64(j.Tasks())
			s.layer["mapred.node_local_tasks"] += float64(j.NodeLocalTasks)
		}
	})
	s.sys.RunUntil(mrWarmup)
	s.timed = true
	return nil
}

func (s *mapredSession) step(r *run) bool {
	now := s.sys.Now()
	if now >= s.trace.Duration && len(s.done) == len(s.trace.Jobs) {
		return false
	}
	if now >= s.trace.Duration+mrMaxDrain {
		r.violate("mapred: %d of %d jobs unfinished %v after the trace ended", len(s.trace.Jobs)-len(s.done), len(s.trace.Jobs), mrMaxDrain)
		return false
	}
	d := r.step("advance", func() { s.sys.RunFor(mrSlice) })
	s.layer["sim.advance_s"] += d.Seconds()
	s.storage.add(s.sys.StorageUsed(), s.userBytes())
	s.slices++
	if s.slices%mrScrapeEvery == 0 {
		s.scrape(r)
	}
	return true
}

// scrape renders /metrics through the control-plane handler in process
// and checks the namespace size against the trace's creation times.
func (s *mapredSession) scrape(r *run) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	r.scrape("scrape", func() { s.srv.Handler().ServeHTTP(w, req) })
	s.scrapes++
	body := w.Body.Bytes()
	s.scrapeBytes += float64(len(body))
	s.series = promSeries(body)
	created := 0
	for _, f := range s.trace.Files {
		if f.CreateAt <= s.sys.Now() {
			created++
		}
	}
	if got, ok := promValue(body, "hdfs_files"); w.Code != http.StatusOK || !ok || got != float64(created) {
		r.violate("mapred scrape at %v: status %d, hdfs_files %v, trace has created %d", s.sys.Now(), w.Code, got, created)
	}
}

func (s *mapredSession) counters() map[string]float64 {
	c := systemCounters(s.sys)
	for k, v := range s.layer {
		c[k] = v
	}
	return c
}

func (s *mapredSession) finish(r *run) outcome {
	for n := 0; !ermsIdle(s.sys); n++ {
		if n >= mrMaxIdle {
			r.violate("mapred: ERMS still busy %d slices after the last job", mrMaxIdle)
			break
		}
		s.sys.RunFor(mrSlice)
	}
	if s.scrapes > 0 {
		r.addLayer("metrics.scrape_bytes", s.scrapeBytes/float64(s.scrapes))
		r.addLayer("metrics.series", float64(s.series))
	}
	capMBps := 0.0
	topo := s.sys.HDFS().Topology()
	for _, n := range topo.Nodes {
		if c := topo.Links[n.Disk].Capacity / erms.MB; c > capMBps {
			capMBps = c
		}
	}
	for _, v := range checkJobs(s.done, len(s.trace.Jobs), capMBps) {
		r.violate("%s", v)
	}
	for _, v := range s.sys.HDFS().ConsistencyErrors() {
		r.violate("mapred consistency: %s", v)
	}
	for _, v := range invariant.Check(invariant.Target{Cluster: s.sys.HDFS(), Manager: s.sys.Manager()}) {
		r.violate("mapred invariant: %s", v)
	}
	var tp float64
	var n, failed int
	for _, j := range s.done {
		if j.Err != nil {
			failed++
			continue
		}
		tp += j.ReadMBps
		n++
	}
	out := outcome{
		storageRatio: s.storage.value(),
		digest:       s.sys.StateDigest(),
		ops:          s.ops,
		attempted:    len(s.trace.Jobs) + s.scrapes,
		failed:       failed + len(s.trace.Jobs) - len(s.done),
	}
	if n > 0 {
		out.readMBps = tp / float64(n)
	}
	addGrowth(r, s.sys)
	out.heapMB = heapInUseMB()
	s.sys.Stop()
	return out
}
