// Package cliflags defines the flags every mhafs command shares, so
// -workers, the server counts and the plan-cache pair read identically
// across mhabench, mhactl and mhad: one help string, one default, one
// wiring into plancache.FromMode.
package cliflags

import (
	"flag"

	"mhafs/internal/plancache"
)

// Workers registers the shared -workers flag on fs. Every command
// guarantees byte-identical output at any setting; the flag only trades
// wall-clock for cores.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		"worker-pool size (0 = GOMAXPROCS, 1 = serial); output is byte-identical at any setting")
}

// Servers registers the shared -hservers/-sservers pair on fs: the
// HServer and SServer counts of the paper's default 6:2 cluster. The
// names leave -h to the flag package, which prints usage.
func Servers(fs *flag.FlagSet) (h, s *int) {
	return fs.Int("hservers", 6, "number of HServers (HDD-backed)"),
		fs.Int("sservers", 2, "number of SServers (SSD-backed)")
}

// PlanCacheFlags holds the registered plan-cache flag pair.
type PlanCacheFlags struct {
	Mode *string // -plan-cache: mem, dir, off
	Dir  *string // -plan-cache-dir
}

// PlanCache registers the shared -plan-cache/-plan-cache-dir pair on fs.
func PlanCache(fs *flag.FlagSet) PlanCacheFlags {
	return PlanCacheFlags{
		Mode: fs.String("plan-cache", "mem",
			"plan cache mode: mem shares plans in-process, dir additionally persists them under -plan-cache-dir, off disables caching; output is byte-identical in every mode"),
		Dir: fs.String("plan-cache-dir", "plan_cache",
			"directory for -plan-cache=dir entries"),
	}
}

// Open builds the cache the flags selected (nil when -plan-cache=off).
func (f PlanCacheFlags) Open() (*plancache.Cache, error) {
	return plancache.FromMode(*f.Mode, *f.Dir)
}
