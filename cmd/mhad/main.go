// Command mhad runs the multi-tenant layout-plan service on a scripted
// submission history: the daemon front-end of internal/service, driven
// by a virtual clock so the run is a deterministic replay rather than a
// long-lived listener. The same script produces byte-identical state
// dumps and telemetry at every -workers setting — the property the CI
// determinism gate diffs.
//
//	mhad -script jobs.script [-slots N] [-workers N]
//	     [-plan-cache mem|dir|off] [-plan-cache-dir DIR] [-ledger-dir DIR]
//	     [-plan-base S] [-plan-per-record S] [-retry-max N] [-retry-backoff S]
//	     [-hservers N] [-sservers N] [-telemetry] [-telemetry-format json|prom]
//
// The script grammar (one op per line, '#' comments):
//
//	at <t> submit <tenant> <submitter> <scheme> gen:<file>:<r|w>:<size>:<count>[:procs] [as <label>]
//	at <t> cancel <label>
//
// -script - reads the script from stdin. The service state dump (jobs,
// ledger, lifecycle counters) is written to stdout as canonical JSON;
// -telemetry appends the registry snapshot. With -ledger-dir the dedupe
// ledger persists across invocations, so a re-run of the same script
// records every submission as a duplicate of the first run's jobs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mhafs/internal/cliflags"
	"mhafs/internal/layout"
	"mhafs/internal/service"
	"mhafs/internal/telemetry"
)

func main() {
	fs := flag.NewFlagSet("mhad", flag.ExitOnError)
	script := fs.String("script", "", "submission script path (- for stdin)")
	slots := fs.Int("slots", 2, "virtual planner slots: jobs planning concurrently in virtual time (part of the schedule, unlike -workers)")
	workers := cliflags.Workers(fs)
	planCache := cliflags.PlanCache(fs)
	ledgerDir := fs.String("ledger-dir", "", "persist the dedupe ledger under this directory (empty: memory-only)")
	planBase := fs.Float64("plan-base", 0.25, "virtual planning duration base (s)")
	planPerRecord := fs.Float64("plan-per-record", 0.0009765625, "virtual planning duration per trace record (s)")
	retryMax := fs.Int("retry-max", 2, "retries before a planner error fails the job")
	retryBackoff := fs.Float64("retry-backoff", 0.5, "first retry delay (s), doubling per attempt")
	hSrv, sSrv := cliflags.Servers(fs)
	telem := fs.Bool("telemetry", false, "emit the telemetry snapshot to stdout after the state dump")
	telFormat := fs.String("telemetry-format", "json", "telemetry snapshot format: json (canonical) or prom (Prometheus text)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		fatal(err)
	}

	if *script == "" {
		fatal(fmt.Errorf("missing -script"))
	}
	var text []byte
	var err error
	if *script == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(*script)
	}
	if err != nil {
		fatal(err)
	}
	ops, err := service.ParseScript(string(text))
	if err != nil {
		fatal(err)
	}

	cache, err := planCache.Open()
	if err != nil {
		fatal(err)
	}
	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.NewRegistry()
	}
	svc, err := service.New(service.Config{
		Slots: *slots, Workers: *workers,
		PlanBase: *planBase, PlanPerRecord: *planPerRecord,
		RetryMax: *retryMax, RetryBackoff: *retryBackoff,
		Cache: cache, LedgerDir: *ledgerDir, Telemetry: reg,
	})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()

	env := layout.DefaultEnv()
	env.M, env.N = *hSrv, *sSrv
	env.Workers = *workers
	if _, err := service.RunScript(svc, env, ops); err != nil {
		fatal(err)
	}
	if err := svc.WriteState(os.Stdout); err != nil {
		fatal(err)
	}
	if reg != nil {
		if cache != nil {
			cache.EmitTelemetry(reg)
		}
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhad:", err)
	os.Exit(1)
}
