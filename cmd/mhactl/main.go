// Command mhactl inspects traces and layout plans: the offline half of the
// MHA pipeline, without running a simulation.
//
// Subcommands:
//
//	mhactl stats  -trace t.txt             summarize a trace
//	mhactl hist   -trace t.txt             request-size histogram
//	mhactl epochs -trace t.txt             concurrency epochs
//	mhactl group  -trace t.txt [-k 16]     Algorithm 1 request grouping
//	mhactl sig    -trace t.txt             per-stream I/O signatures
//	mhactl plan   -trace t.txt -scheme MHA [-hservers 6 -sservers 2]
//	              show the plan
//	mhactl replay -trace t.txt -scheme MHA [-telemetry] simulate a replay
//	              [-faults none|straggler|flaky|outage] [-fault-seed N]
//	              inject a seeded fault scenario with resilience enabled
//	              [-adaptive]  enable the straggler-aware SASIO scheduler
//	              [-plan-cache mem|dir|off] [-plan-cache-dir DIR]
//	              memoize plans by content address (plan and replay both
//	              accept these; output is identical in every mode)
//	mhactl convert -trace in.txt -o out.bin [-binary=true]  convert formats
//	mhactl drt    -db drt.db               dump a persisted DRT
//	mhactl rst    -db rst.db               dump a persisted RST
//	mhactl plan-submit -service-dir d -tenant t -submitter who \
//	              -trace t.txt -scheme MHA   submit a job to the plan
//	              service (idempotent: an identical descriptor returns the
//	              original job ID and is recorded as a duplicate)
//	mhactl plan-status -service-dir d [-tenant t] [-job ID]
//	              summarize the service's dedupe ledger per job
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"mhafs/internal/bench"
	"mhafs/internal/cliflags"
	"mhafs/internal/cluster"
	"mhafs/internal/fault"
	"mhafs/internal/layout"
	"mhafs/internal/metrics"
	"mhafs/internal/pattern"
	"mhafs/internal/plancache"
	"mhafs/internal/region"
	"mhafs/internal/service"
	"mhafs/internal/stripe"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file (text format)")
	db := fs.String("db", "", "table database path (drt/rst)")
	schemeStr := fs.String("scheme", "MHA", "layout scheme for plan")
	hSrv, sSrv := cliflags.Servers(fs)
	k := fs.Int("k", 16, "maximum group count")
	workers := cliflags.Workers(fs)
	window := fs.Float64("window", pattern.DefaultEpochWindow, "concurrency window (s)")
	outPath := fs.String("o", "", "output path (convert)")
	toBinary := fs.Bool("binary", true, "convert to binary (false: to text)")
	faults := fs.String("faults", "", "replay: inject this seeded fault scenario (none, straggler, flaky, outage) with the resilience stages enabled")
	faultSeed := fs.Int64("fault-seed", 1, "replay: seed for the fault scenario's window placement")
	adaptiveF := fs.Bool("adaptive", false, "replay: enable the straggler-aware SASIO scheduler (latency estimation, reroute, speculative re-issue)")
	planCache := cliflags.PlanCache(fs)
	serviceDir := fs.String("service-dir", "", "plan service state root: the dedupe ledger plus a plancache/ subdirectory (plan-submit, plan-status)")
	tenant := fs.String("tenant", "", "plan-submit/plan-status: owning tenant")
	submitter := fs.String("submitter", "", "plan-submit: who is triggering the job (recorded in the ledger)")
	jobID := fs.String("job", "", "plan-status: restrict to one job ID")
	telem := fs.Bool("telemetry", false, "replay: emit the telemetry snapshot to stdout after the tables")
	telFormat := fs.String("telemetry-format", "json", "telemetry snapshot format: json (canonical) or prom (Prometheus text)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	switch cmd {
	case "stats":
		tr := loadTrace(*tracePath)
		fmt.Println(tr.Summarize())
	case "hist":
		tr := loadTrace(*tracePath)
		tb := metrics.NewTable("request-size histogram", "size", "count")
		for _, b := range pattern.SizeHistogram(tr) {
			tb.AddRow(units.Bytes(b.Size).String(), b.Count)
		}
		tb.Fprint(os.Stdout)
	case "epochs":
		tr := loadTrace(*tracePath)
		tb := metrics.NewTable("concurrency epochs", "epoch", "requests", "t0", "bytes")
		for i, ep := range pattern.Epochs(tr, *window) {
			var bytes int64
			for _, r := range ep {
				bytes += r.Size
			}
			tb.AddRow(i, len(ep), fmt.Sprintf("%.6f", ep[0].Time), units.Bytes(bytes).String())
		}
		tb.Fprint(os.Stdout)
	case "group":
		tr := loadTrace(*tracePath)
		ann := pattern.Annotate(tr, *window)
		pts := pattern.Points(ann)
		kk := cluster.BoundK(pts, *k)
		opts := cluster.DefaultOptions()
		opts.Workers = *workers
		res, err := cluster.Group(pts, kk, opts)
		if err != nil {
			fatal(err)
		}
		tb := metrics.NewTable(
			fmt.Sprintf("Algorithm 1 grouping (k=%d, iters=%d)", res.K(), res.Iters),
			"group", "requests", "center size", "center conc")
		for g, members := range res.Groups {
			tb.AddRow(g, len(members),
				units.Bytes(int64(res.Centers[g].X)).String(),
				fmt.Sprintf("%.1f", res.Centers[g].Y))
		}
		tb.Fprint(os.Stdout)
	case "sig":
		tr := loadTrace(*tracePath)
		tb := metrics.NewTable("I/O signatures (per rank, file stream)",
			"file", "rank", "kind", "requests", "stride", "confidence")
		for _, sg := range pattern.Signatures(tr) {
			tb.AddRow(sg.File, sg.Rank, sg.Kind.String(), sg.Requests,
				units.Bytes(sg.Stride).String(), fmt.Sprintf("%.2f", sg.Confidence))
		}
		tb.Fprint(os.Stdout)
	case "plan":
		tr := loadTrace(*tracePath)
		scheme, err := layout.ParseScheme(*schemeStr)
		if err != nil {
			fatal(err)
		}
		env := layout.DefaultEnv()
		env.M, env.N = *hSrv, *sSrv
		env.MaxRegions = *k
		env.Workers = *workers
		planner, err := layout.NewPlanner(scheme)
		if err != nil {
			fatal(err)
		}
		cache, err := planCache.Open()
		if err != nil {
			fatal(err)
		}
		plan, err := plancache.Wrap(planner, cache).Plan(tr, env)
		if err != nil {
			fatal(err)
		}
		tb := metrics.NewTable(
			fmt.Sprintf("%v plan: %d regions, %d mappings", scheme, len(plan.Regions), len(plan.Mappings)),
			"region", "layout", "size", "model cost (s)")
		for _, r := range plan.Regions {
			tb.AddRow(r.File, r.Layout.String(), units.Bytes(r.Size).String(),
				fmt.Sprintf("%.6f", r.Cost))
		}
		tb.Fprint(os.Stdout)
	case "convert":
		tr := loadTrace(*tracePath)
		if *outPath == "" {
			fatal(fmt.Errorf("missing -o"))
		}
		out, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		enc := trace.Write
		if *toBinary {
			enc = trace.WriteBinary
		}
		if err := enc(out, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mhactl: wrote %d records to %s\n", len(tr), *outPath)
	case "replay":
		tr := loadTrace(*tracePath)
		scheme, err := layout.ParseScheme(*schemeStr)
		if err != nil {
			fatal(err)
		}
		cfg := bench.Default()
		cfg.Cluster.HServers, cfg.Env.M = *hSrv, *hSrv
		cfg.Cluster.SServers, cfg.Env.N = *sSrv, *sSrv
		cfg.Env.MaxRegions = *k
		cfg.Workers, cfg.Env.Workers = *workers, *workers
		if *faults != "" {
			sc, err := fault.ParseScenario(*faults)
			if err != nil {
				fatal(err)
			}
			cfg.Faults, cfg.FaultSeed = sc, *faultSeed
		}
		cfg.Adaptive = *adaptiveF
		var reg *telemetry.Registry
		if *telem {
			reg = telemetry.NewRegistry()
			cfg.Telemetry = reg
		}
		cache, err := planCache.Open()
		if err != nil {
			fatal(err)
		}
		cfg.PlanCache = cache
		run, err := cfg.RunScheme(scheme, tr)
		if err != nil {
			fatal(err)
		}
		if reg != nil && cache != nil {
			cache.EmitTelemetry(reg)
		}
		res := run.Result
		lat := res.LatencySummary()
		tb := metrics.NewTable(
			fmt.Sprintf("replay under %v (%dH+%dS)", scheme, *hSrv, *sSrv),
			"metric", "value")
		tb.AddRow("requests", res.Ops)
		tb.AddRow("makespan (s)", fmt.Sprintf("%.6f", res.Makespan))
		tb.AddRow("aggregate MB/s", res.Bandwidth())
		tb.AddRow("read MB/s", res.ReadBandwidth())
		tb.AddRow("write MB/s", res.WriteBandwidth())
		tb.AddRow("latency mean (ms)", fmt.Sprintf("%.3f", lat.Mean*1e3))
		tb.AddRow("latency p50 (ms)", fmt.Sprintf("%.3f", lat.P50*1e3))
		tb.AddRow("latency p95 (ms)", fmt.Sprintf("%.3f", lat.P95*1e3))
		tb.AddRow("latency p99 (ms)", fmt.Sprintf("%.3f", lat.P99*1e3))
		tb.AddRow("regions", len(run.Plan.Regions))
		tb.Fprint(os.Stdout)
		tb2 := metrics.NewTable("per-server busy time (s)", "server", "busy", "bytes")
		for _, st := range res.PerServer {
			tb2.AddRow(st.Name, fmt.Sprintf("%.6f", st.BusyTime), st.ReadBytes+st.WriteBytes)
		}
		tb2.Fprint(os.Stdout)
		if reg != nil {
			var werr error
			switch *telFormat {
			case "prom":
				werr = reg.WritePrometheus(os.Stdout)
			case "json":
				werr = reg.WriteJSON(os.Stdout)
			default:
				werr = fmt.Errorf("unknown -telemetry-format %q (want json or prom)", *telFormat)
			}
			if werr != nil {
				fatal(werr)
			}
		}
	case "plan-submit":
		if *serviceDir == "" {
			fatal(fmt.Errorf("missing -service-dir"))
		}
		if *tenant == "" {
			fatal(fmt.Errorf("missing -tenant"))
		}
		tr := loadTrace(*tracePath)
		scheme, err := layout.ParseScheme(*schemeStr)
		if err != nil {
			fatal(err)
		}
		env := layout.DefaultEnv()
		env.M, env.N = *hSrv, *sSrv
		env.MaxRegions = *k
		env.Workers = *workers
		// The service's plan cache lives under the service directory so
		// identical workloads — resubmitted or cross-tenant — reuse plans
		// across invocations; -plan-cache off opts out.
		var cache *plancache.Cache
		if *planCache.Mode != "off" {
			cache, err = plancache.New(plancache.Options{Dir: filepath.Join(*serviceDir, "plancache")})
			if err != nil {
				fatal(err)
			}
		}
		svc, err := service.New(service.Config{
			Workers: *workers, Cache: cache, LedgerDir: *serviceDir,
		})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		who := *submitter
		if who == "" {
			who = "mhactl"
		}
		receipt, err := svc.Submit(service.Descriptor{
			Tenant: *tenant, Scheme: scheme, Env: env, Trace: tr,
		}, who)
		if err != nil {
			fatal(err)
		}
		if err := svc.Run(); err != nil {
			fatal(err)
		}
		st, _ := svc.Status(receipt.ID)
		tb := metrics.NewTable("plan-submit receipt", "field", "value")
		tb.AddRow("job", receipt.ID.String())
		tb.AddRow("tenant", *tenant)
		tb.AddRow("scheme", scheme.String())
		tb.AddRow("duplicate", receipt.Duplicate)
		tb.AddRow("state", st.State)
		tb.AddRow("attempts", st.Attempts)
		// Region counts exist only for jobs planned by this invocation; a
		// duplicate of a prior invocation's job answers from the ledger
		// (and its plan from the dir cache) without re-planning.
		if st.State == "done" && st.PlanKey != "" {
			tb.AddRow("regions", st.Regions)
			tb.AddRow("mappings", st.Mappings)
		}
		if st.Error != "" {
			tb.AddRow("error", st.Error)
		}
		tb.Fprint(os.Stdout)
	case "plan-status":
		if *serviceDir == "" {
			fatal(fmt.Errorf("missing -service-dir"))
		}
		entries, err := service.ReadLedger(*serviceDir)
		if err != nil {
			fatal(err)
		}
		tb := metrics.NewTable("plan service ledger", "job", "tenant", "scheme",
			"state", "submissions", "duplicates", "first", "last")
		for _, s := range service.SummarizeLedger(entries) {
			if *tenant != "" && s.Tenant != *tenant {
				continue
			}
			if *jobID != "" && s.Job != *jobID {
				continue
			}
			tb.AddRow(s.Job, s.Tenant, s.Scheme, s.State, s.Submissions, s.Duplicates,
				fmt.Sprintf("%.3f", s.FirstSubmit), fmt.Sprintf("%.3f", s.LastEntry))
		}
		tb.Fprint(os.Stdout)
	case "drt":
		d, err := region.OpenDRT(*db)
		if err != nil {
			fatal(err)
		}
		defer d.Close()
		tb := metrics.NewTable(fmt.Sprintf("DRT: %d mappings", d.Len()),
			"o_file", "o_offset", "r_file", "r_offset", "length")
		for _, f := range d.Files() {
			for _, m := range d.Mappings(f) {
				tb.AddRow(m.OFile, m.OOffset, m.RFile, m.ROffset, m.Length)
			}
		}
		tb.Fprint(os.Stdout)
	case "rst":
		r, err := region.OpenRST(*db)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		tb := metrics.NewTable(fmt.Sprintf("RST: %d regions", r.Len()),
			"region", "layout")
		type row struct {
			name string
			l    string
		}
		var rows []row
		r.ForEach(func(name string, l stripe.Layout) bool {
			rows = append(rows, row{name, l.String()})
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
		for _, rr := range rows {
			tb.AddRow(rr.name, rr.l)
		}
		tb.Fprint(os.Stdout)
	default:
		usage()
	}
}

func loadTrace(path string) trace.Trace {
	if path == "" {
		fatal(fmt.Errorf("missing -trace"))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// Auto-detect the binary format by its magic.
	head := make([]byte, 4)
	n, _ := io.ReadFull(f, head)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		fatal(err)
	}
	var tr trace.Trace
	if n == 4 && string(head) == "MHTR" {
		tr, err = trace.ReadBinary(f)
	} else {
		tr, err = trace.Read(f)
	}
	if err != nil {
		fatal(err)
	}
	return tr
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mhactl <stats|hist|epochs|group|sig|plan|replay|convert|drt|rst|plan-submit|plan-status> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhactl:", err)
	os.Exit(1)
}
