package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"erms"
	"erms/internal/metrics"
	"erms/internal/server"
)

// The checks below compare the program's outputs with the models the
// workload generators keep themselves. Each returns its violations
// (empty when the output is right), so tests can feed them wrong inputs.

// jobRecord is what the benchmark keeps of one finished MapReduce job.
type jobRecord struct {
	Name     string
	Err      error
	ReadMBps float64
}

// checkJobs asserts that every job of the trace finished without error,
// exactly once each, and that no job read faster than one disk can
// stream: every block read crosses the serving node's disk, so capMBps
// (the fastest configured disk) bounds each task and hence each job.
func checkJobs(done []jobRecord, traceJobs int, capMBps float64) []string {
	var errs []string
	if len(done) != traceJobs {
		errs = append(errs, fmt.Sprintf("mapred: %d jobs finished, trace has %d", len(done), traceJobs))
	}
	for _, j := range done {
		if j.Err != nil {
			errs = append(errs, fmt.Sprintf("mapred: job %s failed: %v", j.Name, j.Err))
		}
		if j.ReadMBps > capMBps*(1+1e-9) {
			errs = append(errs, fmt.Sprintf("mapred: job %s read at %.3f MB/s, above the %.3f MB/s a disk carries", j.Name, j.ReadMBps, capMBps))
		}
	}
	return errs
}

// readModel is the benchmark's own account of the reads it asked for.
type readModel struct {
	Issued int     // reads issued, whole-file and ranged
	Bytes  float64 // whole-file sizes plus range lengths, in bytes
}

func (m *readModel) add(bytes float64) {
	m.Issued++
	m.Bytes += bytes
}

// checkReads asserts that after a drain the program completed exactly the
// reads the model issued, failed none, and delivered exactly the bytes
// the model asked for. Sizes are whole megabytes, so the byte sums are
// exact in float64 whatever the order of addition.
func checkReads(model readModel, got erms.HDFSMetrics) []string {
	var errs []string
	if got.ReadsCompleted != model.Issued {
		errs = append(errs, fmt.Sprintf("reads: %d completed, model issued %d", got.ReadsCompleted, model.Issued))
	}
	if got.ReadsFailed != 0 {
		errs = append(errs, fmt.Sprintf("reads: %d failed", got.ReadsFailed))
	}
	if got.BytesRead != model.Bytes {
		errs = append(errs, fmt.Sprintf("reads: %.0f bytes read, model asked for %.0f", got.BytesRead, model.Bytes))
	}
	return errs
}

// checkStored asserts that the bytes stored lie between one copy and
// maxRepl copies of the user data: Reed–Solomon coding never stores less
// than the data itself, and the judge never replicates past its cap.
func checkStored(stored, user float64, maxRepl int) []string {
	if user <= 0 {
		return []string{fmt.Sprintf("storage: model holds %.0f user bytes", user)}
	}
	if stored < user || stored > float64(maxRepl)*user {
		return []string{fmt.Sprintf("storage: %.0f bytes stored for %.0f user bytes, outside [1, %d]×", stored, user, maxRepl)}
	}
	return nil
}

// checkBatch asserts that a /v1/ops batch was accepted whole.
func checkBatch(code int, resp server.OpsResponse, n int) []string {
	if code != 200 || resp.Accepted != n || resp.Failed != 0 {
		return []string{fmt.Sprintf("ops batch: status %d, accepted %d of %d, failed %d %v", code, resp.Accepted, n, resp.Failed, resp.Errors)}
	}
	return nil
}

// checkScrapeTotals asserts that a /metrics body reports the namespace
// size and completed reads summed over every shard.
func checkScrapeTotals(body []byte, files, readsCompleted float64) []string {
	var errs []string
	for _, want := range []struct {
		name string
		v    float64
	}{{"hdfs_files", files}, {"hdfs_reads_completed_total", readsCompleted}} {
		got, ok := promValue(body, want.name)
		if !ok {
			errs = append(errs, fmt.Sprintf("scrape: no %s series", want.name))
		} else if got != want.v {
			errs = append(errs, fmt.Sprintf("scrape: %s = %v, want %v summed over shards", want.name, got, want.v))
		}
	}
	return errs
}

// promValue reads metric name from a Prometheus text body: its unlabeled
// series when there is one, otherwise the sum of its labeled series (a
// registry that exports one series per shard). ok is false when the
// metric is absent.
func promValue(body []byte, name string) (v float64, ok bool) {
	var sum float64
	var labeled bool
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		x, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case sp == 0:
			return x, true
		case rest[0] == '{':
			sum += x
			labeled = true
		}
	}
	return sum, labeled
}

// promSeries counts the sample lines of a Prometheus text body.
func promSeries(body []byte) int {
	n := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

// registryValues renders a registry and returns the named metrics.
func registryValues(reg *metrics.Registry, names ...string) []float64 {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := make([]float64, len(names))
	for i, n := range names {
		out[i], _ = promValue(buf.Bytes(), n)
	}
	return out
}

// systemCounters snapshots the layer counters of a system from its
// public accessors and every shard's metrics registry.
func systemCounters(sys *erms.System) map[string]float64 {
	m := sys.Metrics()
	c := map[string]float64{
		"sim.events":            float64(sys.Engine().Fired()),
		"hdfs.reads":            float64(m.ReadsStarted),
		"hdfs.block_reads":      float64(m.BlockReads),
		"hdfs.node_local_reads": float64(m.NodeLocalReads),
		"hdfs.replicas_added":   float64(m.ReplicasAdded),
		"hdfs.replicas_removed": float64(m.ReplicasRemoved),
		"hdfs.replication_mb":   m.ReplicationMB,
		"hdfs.files_encoded":    float64(m.FilesEncoded),
	}
	for i := 0; i < sys.Shards(); i++ {
		sh := sys.Shard(i)
		c["netsim.bytes_gb"] += sh.HDFS().Fabric().BytesMoved / erms.GB
		v := registryValues(sh.Registry(), "net_flows_admitted_total", "cep_events_inserted_total",
			"condor_jobs_submitted_total", "condor_jobs_completed_total", "condor_attempts_retried_total")
		c["netsim.flows"] += v[0]
		c["cep.events"] += v[1]
		c["condor.jobs_submitted"] += v[2]
		c["condor.jobs_completed"] += v[3]
		c["condor.retries"] += v[4]
		if mgr := sh.Manager(); mgr != nil {
			st := mgr.Stats()
			c["core.decisions"] += float64(st.Decisions)
			c["core.increases"] += float64(st.Increases)
			c["core.decreases"] += float64(st.Decreases)
			c["core.encodes"] += float64(st.Encodes)
			c["core.repairs"] += float64(st.Repairs)
		}
	}
	return c
}

// ermsIdle reports whether no ERMS management job is queued or running in
// any shard: the quiescent point at which the end-of-run checks apply.
// Mid-job states are not checked — an encode, for one, registers its
// parity blocks before it writes them.
func ermsIdle(sys *erms.System) bool {
	for i := 0; i < sys.Shards(); i++ {
		v := registryValues(sys.Shard(i).Registry(), "condor_jobs_running", "condor_jobs_pending")
		if v[0]+v[1] > 0 {
			return false
		}
	}
	return true
}

// addGrowth records the structures that grow with uptime — the journal
// and the decision history — as they stand at the end of a session.
func addGrowth(r *run, sys *erms.System) {
	for i := 0; i < sys.Shards(); i++ {
		sh := sys.Shard(i)
		if j := sh.Journal(); j != nil {
			r.addLayer("auditlog.journal_entries", float64(j.Len()))
		}
		if mgr := sh.Manager(); mgr != nil {
			r.addLayer("core.history_len", float64(len(mgr.History())))
		}
	}
}
