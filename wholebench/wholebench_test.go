package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"erms"
	"erms/internal/federation"
)

func TestCheckReadsRejectsDroppedRead(t *testing.T) {
	var model readModel
	for _, mb := range []float64{128, 128, 16, 32} {
		model.add(mb * erms.MB)
	}
	got := erms.HDFSMetrics{ReadsStarted: 4, ReadsCompleted: 4, BytesRead: 304 * erms.MB}
	if errs := checkReads(model, got); len(errs) != 0 {
		t.Fatalf("matching model rejected: %v", errs)
	}
	dropped := readModel{Issued: model.Issued - 1, Bytes: model.Bytes - 32*erms.MB}
	if errs := checkReads(dropped, got); len(errs) != 2 {
		t.Fatalf("model with one read dropped: got %v, want a count and a byte violation", errs)
	}
	failed := got
	failed.ReadsFailed = 1
	if errs := checkReads(model, failed); len(errs) != 1 {
		t.Fatalf("failed read: got %v, want one violation", errs)
	}
}

func TestCheckScrapeTotalsRejectsWrongTotal(t *testing.T) {
	body := []byte("# TYPE hdfs_files gauge\nhdfs_files 10\n# TYPE hdfs_files_encoded_total gauge\n" +
		"hdfs_files_encoded_total 3\nhdfs_reads_completed_total 5\n")
	if errs := checkScrapeTotals(body, 10, 5); len(errs) != 0 {
		t.Fatalf("right totals rejected: %v", errs)
	}
	if errs := checkScrapeTotals(body, 40, 5); len(errs) != 1 {
		t.Fatalf("shard-0-only namespace total: got %v, want one violation", errs)
	}
	if errs := checkScrapeTotals([]byte("hdfs_files 10\n"), 10, 5); len(errs) != 1 {
		t.Fatalf("missing series: got %v, want one violation", errs)
	}
	perShard := []byte("hdfs_files{shard=\"0\"} 4\nhdfs_files{shard=\"1\"} 6\n" +
		"hdfs_reads_completed_total{shard=\"0\"} 2\nhdfs_reads_completed_total{shard=\"1\"} 3\n")
	if errs := checkScrapeTotals(perShard, 10, 5); len(errs) != 0 {
		t.Fatalf("per-shard series summing to the totals rejected: %v", errs)
	}
}

func TestCheckJobsRejectsMissingJob(t *testing.T) {
	jobs := []jobRecord{{Name: "a", ReadMBps: 40}, {Name: "b", ReadMBps: 80}, {Name: "c", ReadMBps: 12}}
	if errs := checkJobs(jobs, 3, 80); len(errs) != 0 {
		t.Fatalf("complete job list rejected: %v", errs)
	}
	if errs := checkJobs(jobs[:2], 3, 80); len(errs) != 1 {
		t.Fatalf("job list missing one job: got %v, want one violation", errs)
	}
	fast := append([]jobRecord(nil), jobs...)
	fast[1].ReadMBps = 80.5
	if errs := checkJobs(fast, 3, 80); len(errs) != 1 {
		t.Fatalf("job faster than a disk: got %v, want one violation", errs)
	}
	failed := append([]jobRecord(nil), jobs...)
	failed[0].Err = errors.New("no such file")
	if errs := checkJobs(failed, 3, 80); len(errs) != 1 {
		t.Fatalf("failed job: got %v, want one violation", errs)
	}
}

func TestCheckStoredRejectsOutOfRange(t *testing.T) {
	if errs := checkStored(3*erms.GB, erms.GB, 10); len(errs) != 0 {
		t.Fatalf("triplicated data rejected: %v", errs)
	}
	if errs := checkStored(0.9*erms.GB, erms.GB, 10); len(errs) != 1 {
		t.Fatalf("stored bytes below the user bytes: got %v, want one violation", errs)
	}
	if errs := checkStored(11*erms.GB, erms.GB, 10); len(errs) != 1 {
		t.Fatalf("stored bytes above the replication cap: got %v, want one violation", errs)
	}
}

// TestOpStreamsDependOnlyOnSeed pins that every workload's input is a
// pure function of the seed: the same seed encodes to identical bytes,
// another seed does not.
func TestOpStreamsDependOnlyOnSeed(t *testing.T) {
	gens := map[string]func(int64) any{
		"mapred-replay":   func(s int64) any { return mapredTrace(s) },
		"service-ops":     func(s int64) any { return makeServicePlan(s) },
		"federated-churn": func(s int64) any { return makeFederatedPlan(s) },
	}
	for name, gen := range gens {
		enc := func(seed int64) []byte {
			b, err := json.Marshal(gen(seed))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return b
		}
		if a, b := enc(7), enc(7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if bytes.Equal(enc(7), enc(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

// TestFederatedPlanKeepsReadsOffMovedFiles checks the generator's
// disjointness rule: no file is renamed or deleted in a batch that reads
// it or within fedRecent batches after a read.
func TestFederatedPlanKeepsReadsOffMovedFiles(t *testing.T) {
	p := makeFederatedPlan(3)
	lastRead := map[string]int{}
	for b, bt := range p.Batches {
		cross := 0
		for _, op := range bt.Ops {
			if op.Op == "read" {
				lastRead[op.Path] = b
			}
		}
		for _, op := range bt.Ops {
			if op.Op != "rename" && op.Op != "delete" {
				continue
			}
			if at, ok := lastRead[op.Path]; ok && at >= b-fedRecent {
				t.Fatalf("batch %d: %s of %s read in batch %d", b, op.Op, op.Path, at)
			}
			if op.Op == "rename" {
				if at, ok := lastRead[op.Path]; ok {
					lastRead[op.Dst] = at
				}
				if pathShard(op.Path) != pathShard(op.Dst) {
					cross++
				}
			}
		}
		if cross != fedCross {
			t.Fatalf("batch %d has %d cross-shard renames, want %d", b, cross, fedCross)
		}
	}
}

var pathShard = federation.New(fedShards).Shard

func TestPromValue(t *testing.T) {
	body := []byte("a_total 3\na_total_x 9\nb{l=\"1\"} 2\nb{l=\"2\"} 5\n")
	for _, c := range []struct {
		name string
		want float64
		ok   bool
	}{{"a_total", 3, true}, {"b", 7, true}, {"c", 0, false}} {
		if got, ok := promValue(body, c.name); got != c.want || ok != c.ok {
			t.Errorf("promValue(%s) = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
	if n := promSeries(body); n != 4 {
		t.Errorf("promSeries = %d, want 4", n)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	rec := newRecorder()
	t0 := rec.t0
	outer := rec.begin("batch", t0)
	inner := rec.begin("advance", t0.Add(time.Millisecond))
	rec.end(inner, 3*time.Millisecond)
	rec.addChild(outer, "handler", t0.Add(5*time.Millisecond), time.Millisecond)
	rec.end(outer, 10*time.Millisecond)
	self := rec.selfMS()
	want := map[string]float64{"batch": 6, "advance": 3, "handler": 1}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", k, self[k], v)
		}
	}
	var nilRec *recorder
	if id := nilRec.begin("x", t0); id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	nilRec.end(-1, time.Second)
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"erms/internal/netsim.(*Fabric).computeRates": "netsim",
		"erms/internal/classad.Eval":                  "condor",
		"encoding/json.(*decodeState).object":         "json",
		"net/http.(*conn).serve":                      "server",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"erms.(*System).Rename":                       "facade",
		"aeshashbody":                                 "runtime",
		"sort.Slice":                                  "",
		"strconv.FormatFloat":                         "",
	} {
		if got := layerOf(pkgOf(fn)); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfile folds a real CPU profile of this process.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	byLayer, byPkg := map[string]float64{}, map[string]float64{}
	if err := foldProfile(buf.Bytes(), byLayer, byPkg); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 || x == 0 {
		t.Fatalf("folded %v s from a 300 ms busy loop (%v)", total, byLayer)
	}
	if err := foldProfile([]byte("not a profile"), byLayer, byPkg); err == nil {
		t.Fatal("folding garbage succeeded")
	}
}

// TestSessionsPassTheirChecks runs one session of every workload end to
// end and expects no check to fail.
func TestSessionsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		r := newRun(false)
		s := workloads[name](1)
		if err := s.setup(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for s.step(r) {
		}
		out := s.finish(r)
		if len(r.violations) > 0 {
			t.Errorf("%s: %s", name, strings.Join(r.violations, "; "))
		}
		if out.attempted == 0 || out.readMBps <= 0 || out.storageRatio < 1 {
			t.Errorf("%s: implausible outcome %+v", name, out)
		}
		wantFailed := 0
		if name == "federated-churn" {
			wantFailed = fedTimed / fedScrapeEvery // every scrape shows shard 0 only
		}
		if out.failed != wantFailed {
			t.Errorf("%s: %d failed operations, want %d", name, out.failed, wantFailed)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// workloads and metric tables the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			metricSpec
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var e2e []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's table")
	}
}
