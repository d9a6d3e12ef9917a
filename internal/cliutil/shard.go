package cliutil

import (
	"fmt"

	"emmcio/internal/experiments"
)

// SweepShard is one serializable unit of a sharded sweep: the parent
// SweepSpec narrowed to a single named study and, for studies with a
// per-trace axis, a contiguous roster subset. A shard's Spec is an
// ordinary SweepSpec — POSTable to any emmcd worker's /v1/sweeps or
// runnable in process through SweepSpec.Run — so the distributed fabric
// needs no second wire format.
type SweepShard struct {
	// ID is the shard's plan-order index across the whole sharded sweep;
	// results merge back in ID order regardless of completion order.
	ID int `json:"id"`
	// Entry is the index into the parent spec's Sweeps list this shard
	// belongs to; consecutive shards sharing an Entry merge row-wise.
	Entry int `json:"entry"`
	// Sweep is the one named study this shard runs.
	Sweep string `json:"sweep"`
	// Spec is the self-contained narrowed spec.
	Spec SweepSpec `json:"spec"`
}

// ShardSweep splits spec into plan-order shards. Studies with a per-trace
// axis (experiments.Study.Traces) split into roster chunks of at most
// tracesPerShard traces each (<= 0 means 1, the finest grain); studies
// without one become a single atomic shard.
//
// Determinism: a trace-axis shard's replays depend only on (trace,
// scheme, options, seed) — never on plan position — so the row-wise merge
// of shard results in ID order is bit-identical to the unsharded sweep.
// Studies whose cells do depend on plan position (faultsweep mixes the
// plan index into per-cell fault seeds) have no axis and stay atomic.
func ShardSweep(spec SweepSpec, tracesPerShard int) ([]SweepShard, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tracesPerShard <= 0 {
		tracesPerShard = 1
	}
	var shards []SweepShard
	for entry, name := range spec.Sweeps {
		study, _ := experiments.Lookup(name)
		axis := study.Traces
		if len(axis) == 0 {
			shards = append(shards, newShard(spec, len(shards), entry, name, spec.Traces))
			continue
		}
		roster := spec.Traces
		if len(roster) == 0 {
			// The unsharded sweep would fan over the full default axis;
			// the chunks must cover exactly that, in the same order.
			roster = axis
		}
		for lo := 0; lo < len(roster); lo += tracesPerShard {
			hi := min(lo+tracesPerShard, len(roster))
			shards = append(shards, newShard(spec, len(shards), entry, name, roster[lo:hi]))
		}
	}
	return shards, nil
}

// newShard narrows parent to one sweep and roster subset. The spec is
// copied so shards never alias the parent's (or each other's) slices.
func newShard(parent SweepSpec, id, entry int, name string, traces []string) SweepShard {
	spec := parent
	spec.Sweeps = []string{name}
	spec.Traces = append([]string(nil), traces...)
	return SweepShard{ID: id, Entry: entry, Sweep: name, Spec: spec}
}

// MergeShardResults folds per-shard results back into the unsharded
// sweep's []SweepResult. results must be indexed like shards, which must
// be in ID order (as ShardSweep returns them); each shard contributes
// exactly one SweepResult. Shards sharing an Entry — the chunks of one
// per-trace sweep — merge by appending table rows in plan order, which
// reproduces the unsharded render byte-for-byte because each chunk's rows
// are exactly the full sweep's rows for its roster slice.
func MergeShardResults(shards []SweepShard, results [][]SweepResult) ([]SweepResult, error) {
	if len(results) != len(shards) {
		return nil, fmt.Errorf("cliutil: %d shard results for %d shards", len(results), len(shards))
	}
	var out []SweepResult
	lastEntry := -1
	for i, sh := range shards {
		res := results[i]
		if len(res) != 1 {
			return nil, fmt.Errorf("cliutil: shard %d (%s) returned %d sweep results, want 1", sh.ID, sh.Sweep, len(res))
		}
		cur := res[0]
		if cur.Name != sh.Sweep {
			return nil, fmt.Errorf("cliutil: shard %d returned sweep %q, want %q", sh.ID, cur.Name, sh.Sweep)
		}
		for ti, tbl := range cur.Tables {
			if tbl == nil {
				return nil, fmt.Errorf("cliutil: shard %d (%s) returned a null table %d", sh.ID, sh.Sweep, ti)
			}
		}
		if sh.Entry != lastEntry {
			out = append(out, cur)
			lastEntry = sh.Entry
			continue
		}
		prev := &out[len(out)-1]
		if len(cur.Tables) != len(prev.Tables) {
			return nil, fmt.Errorf("cliutil: shard %d (%s) rendered %d tables, earlier chunks rendered %d",
				sh.ID, sh.Sweep, len(cur.Tables), len(prev.Tables))
		}
		for ti, tbl := range cur.Tables {
			if err := prev.Tables[ti].AppendRows(tbl); err != nil {
				return nil, fmt.Errorf("cliutil: merging shard %d (%s): %w", sh.ID, sh.Sweep, err)
			}
		}
	}
	return out, nil
}
