package service

import "sync/atomic"

// Progress is a set of monotonic sweep-point counters, readable by
// pollers while sweeps run: each sweep job keeps one (its status
// `progress` object) and the server keeps one over every sweep it ran
// (the cnfetd_sweep_* metrics). All methods are safe for concurrent use.
type Progress struct {
	total  atomic.Int64
	done   atomic.Int64
	failed atomic.Int64
	cached atomic.Int64 // cached flow stages of completed points
	stages atomic.Int64 // flow stages of completed points
}

// ProgressSnapshot is one consistent-enough read of the counters (each
// counter is individually atomic; the set is read without a global lock).
type ProgressSnapshot struct {
	Total        int64 `json:"total"`
	Done         int64 `json:"done"`
	Failed       int64 `json:"failed,omitempty"`
	CachedStages int64 `json:"cached_stages,omitempty"`
	TotalStages  int64 `json:"total_stages,omitempty"`
}

// AddTotal grows the expected-point counter by an admitted sweep's size.
func (p *Progress) AddTotal(n int) { p.total.Add(int64(n)) }

// ItemDone records one completed point (failed marks it as an error)
// plus the cached/total flow-stage counts it observed.
func (p *Progress) ItemDone(failed bool, cachedStages, totalStages int) {
	p.done.Add(1)
	if failed {
		p.failed.Add(1)
	}
	p.cached.Add(int64(cachedStages))
	p.stages.Add(int64(totalStages))
}

// Snapshot reads the counters.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Total:        p.total.Load(),
		Done:         p.done.Load(),
		Failed:       p.failed.Load(),
		CachedStages: p.cached.Load(),
		TotalStages:  p.stages.Load(),
	}
}
