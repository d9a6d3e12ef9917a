package cliutil

import (
	"context"
	"encoding/json"
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/report"
)

func TestShardSweepPerTraceAxis(t *testing.T) {
	spec := SweepSpec{Sweeps: []string{"casestudy"}, Traces: []string{paper.Idle, paper.CallIn, paper.CallOut}}

	shards, err := ShardSweep(spec, 1)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3 (one per trace)", len(shards))
	}
	for i, sh := range shards {
		if sh.ID != i || sh.Entry != 0 || sh.Sweep != "casestudy" {
			t.Errorf("shard %d = {ID:%d Entry:%d Sweep:%q}, want plan-order casestudy shard", i, sh.ID, sh.Entry, sh.Sweep)
		}
		if len(sh.Spec.Sweeps) != 1 || len(sh.Spec.Traces) != 1 || sh.Spec.Traces[0] != spec.Traces[i] {
			t.Errorf("shard %d spec = %+v, want single sweep over trace %q", i, sh.Spec, spec.Traces[i])
		}
	}

	// Coarser grain: ceil(3/2) chunks, preserving roster order.
	shards, err = ShardSweep(spec, 2)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	if len(shards) != 2 || len(shards[0].Spec.Traces) != 2 || len(shards[1].Spec.Traces) != 1 {
		t.Fatalf("tracesPerShard=2 over 3 traces: got %d shards, want 2+1 chunking", len(shards))
	}

	// An empty roster fans over the sweep's full default axis.
	full, err := ShardSweep(SweepSpec{Sweeps: []string{"casestudy"}}, 1)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	if len(full) != len(paper.IndividualApps) {
		t.Errorf("full-roster casestudy: %d shards, want %d (one per app)", len(full), len(paper.IndividualApps))
	}
}

func TestShardSweepAtomicSweepStaysWhole(t *testing.T) {
	// faultsweep mixes the plan index into per-cell seeds, so splitting it
	// would change results; it must come back as exactly one shard.
	spec := SweepSpec{Sweeps: []string{"faultsweep"}}
	shards, err := ShardSweep(spec, 1)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	if len(shards) != 1 {
		t.Fatalf("faultsweep sharded into %d pieces, must stay atomic", len(shards))
	}
}

func TestShardSweepRejectsBadSpec(t *testing.T) {
	if _, err := ShardSweep(SweepSpec{Sweeps: []string{"nope"}}, 1); err == nil {
		t.Error("unknown sweep name accepted")
	}
	if _, err := ShardSweep(SweepSpec{}, 1); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestMergeShardResultsMatchesUnsharded is the determinism contract at the
// unit level: run a sweep whole, then shard it, run every shard through
// the same SweepSpec.Run path a worker job uses — round-tripping each
// result through JSON like the wire would — and the plan-order merge must
// marshal to the unsharded run's exact bytes.
func TestMergeShardResultsMatchesUnsharded(t *testing.T) {
	spec := SweepSpec{
		Sweeps: []string{"casestudy"},
		Traces: []string{paper.Idle, paper.CallIn, paper.CallOut},
	}
	ctx := context.Background()

	whole := spec
	want, err := whole.Run(ctx, 0, nil, nil)
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal unsharded: %v", err)
	}

	shards, err := ShardSweep(spec, 1)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	results := make([][]SweepResult, len(shards))
	for i, sh := range shards {
		res, err := sh.Spec.Run(ctx, 0, nil, nil)
		if err != nil {
			t.Fatalf("shard %d run: %v", i, err)
		}
		// Simulate the worker hop: marshal, then decode as the coordinator
		// would. Byte identity must survive the round trip.
		wire, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("shard %d marshal: %v", i, err)
		}
		var decoded []SweepResult
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatalf("shard %d unmarshal: %v", i, err)
		}
		results[i] = decoded
	}

	merged, err := MergeShardResults(shards, results)
	if err != nil {
		t.Fatalf("MergeShardResults: %v", err)
	}
	gotJSON, err := json.Marshal(merged)
	if err != nil {
		t.Fatalf("marshal merged: %v", err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("sharded merge diverged from unsharded run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestMergeShardResultsRejectsMismatch(t *testing.T) {
	spec := SweepSpec{Sweeps: []string{"casestudy"}, Traces: []string{paper.Idle, paper.CallIn}}
	shards, err := ShardSweep(spec, 1)
	if err != nil {
		t.Fatalf("ShardSweep: %v", err)
	}
	if _, err := MergeShardResults(shards, make([][]SweepResult, 1)); err == nil {
		t.Error("result/shard count mismatch accepted")
	}
	bad := [][]SweepResult{
		{{Name: "casestudy"}},
		{{Name: "wrong"}},
	}
	if _, err := MergeShardResults(shards, bad); err == nil {
		t.Error("sweep-name mismatch accepted")
	}
	null := [][]SweepResult{
		{{Name: "casestudy", Tables: []*report.Table{nil}}},
		{{Name: "casestudy", Tables: []*report.Table{nil}}},
	}
	if _, err := MergeShardResults(shards, null); err == nil {
		t.Error("null worker table accepted")
	}
}
