package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/trace"
)

// decodeSpec decodes a job body the way the server does: strictly, with
// unknown fields rejected.
func decodeSpec(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// fuzzSource is the request stream a fuzzed spec's transforms wrap: a few
// requests a second apart, so scaling and session repetition have arrival
// times and a duration to work on.
func fuzzSource() trace.Stream {
	tr := &trace.Trace{Name: "fuzz"}
	for i := 0; i < 8; i++ {
		tr.Reqs = append(tr.Reqs, trace.Request{Arrival: int64(i) * 1_000_000_000, LBA: uint64(i) * 8, Size: 4096, Op: trace.Op(i % 2)})
	}
	return trace.FromSlice(tr)
}

// FuzzReplaySpec holds the replay job body to its contract: any bytes
// either fail decoding or Validate, or yield a spec whose every derived
// value (backend, device options, fault config, prepared stream) is
// computed without a panic.
func FuzzReplaySpec(f *testing.F) {
	for _, seed := range []string{
		`{"app":"Twitter"}`,
		`{"app":"CallIn","scheme":"4PS"}`,
		`{"app":"Twitter","scheme":"HPS"}`,
		`{"app":"Twitter","scheme":"all"}`,
		`{"app":"CallIn","scheme":"4PS","from_device":"d000000000000"}`,
		`{"app":"CallIn","scheme":"4PS","sessions":2,"faults":1,"fault_seed":3}`,
		`{"app":"Booting","gc":"idle","faults":0.5,"fault_seed":7,"shrink":8}`,
		`{"app":"Twitter","device":"ufs","ufs_queue_depth":16}`,
		`{"app":"Twitter","scale":0.5,"sessions":3,"buffer_mb":4,"power":true,"wear":"static"}`,
		`{"app":"Twitter","bogus":1}`,
		`{"app":"Twitter","scheme":"16PS"}`,
		`{"app":"Twitter","gc":"eager"}`,
		`{"app":"Twitter","wear":"perfect"}`,
		`{"app":"Twitter","fault_seed":7}`,
		`{"app":"Twitter","scale":-1}`,
		// Overflowed the int64 arrival clock and panicked in trace.Repeat.
		`{"app":"Twitter","scale":1e300,"sessions":2}`,
		`{"app":"Twitter","scale":1e4,"sessions":2}`,
		`{"app":"Twitter","device":"floppy"}`,
		`{"app":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s ReplaySpec
		if decodeSpec(data, &s) != nil || s.Validate(nil) != nil {
			return
		}
		s.Normalize()
		if _, err := s.Backend(); err != nil {
			t.Fatalf("Backend failed after Validate passed: %v", err)
		}
		if _, err := s.DeviceOptions(); err != nil {
			t.Fatalf("DeviceOptions failed after Validate passed: %v", err)
		}
		if _, err := s.FaultConfig(); err != nil {
			t.Fatalf("FaultConfig failed after Validate passed: %v", err)
		}
		st := s.PrepareStream(fuzzSource())
		for i := 0; i < 64; i++ {
			if _, ok, err := st.Next(); err != nil || !ok {
				break
			}
		}
	})
}

// FuzzSweepSpec does the same for the sweep job body: a spec that passes
// Validate resolves its backend, fault config and experiment env without
// a panic.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{"sweeps":["tables"]}`,
		`{"sweeps":["casestudy"],"traces":["CallIn"]}`,
		`{"sweeps":["tables"],"from_device":"d000000000000"}`,
		`{"sweeps":["casestudy"],"device":"ufs","ufs_booster_mb":-1,"workers":2}`,
		`{"sweeps":["casestudy","figures"],"faults":0.5,"fault_seed":7,"seed":3}`,
		`{"sweeps":["casestudy"],"device":"floppy"}`,
		`{"sweeps":["fig99"]}`,
		`{"sweeps":["casestudy"],"traces":["NoSuchApp"]}`,
		`{"sweeps":["tables"],"fault_seed":3}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s SweepSpec
		if decodeSpec(data, &s) != nil || s.Validate() != nil {
			return
		}
		s.Normalize()
		if _, err := s.Backend(); err != nil {
			t.Fatalf("Backend failed after Validate passed: %v", err)
		}
		if _, err := FaultConfig(s.Faults, s.FaultSeed, s.FaultSeed != 0); err != nil {
			t.Fatalf("FaultConfig failed after Validate passed: %v", err)
		}
		// No device source is attached, so a from_device spec fails here;
		// any other valid spec must yield an env.
		if _, err := s.Env(context.Background()); err != nil && s.FromDevice == "" {
			t.Fatalf("Env failed after Validate passed: %v", err)
		}
	})
}

// FuzzMergeShardResults feeds hostile worker bodies through the
// coordinator's decode (report.Table.UnmarshalJSON) and merge for a
// two-shard casestudy plan. Whatever the workers return, the merge either
// fails with an error or yields tables that re-marshal, decode again, and
// hold exactly the shards' rows.
func FuzzMergeShardResults(f *testing.F) {
	shards, err := ShardSweep(SweepSpec{Sweeps: []string{"casestudy"}, Traces: []string{paper.Idle, paper.CallIn}}, 1)
	if err != nil {
		f.Fatal(err)
	}
	table := func(title, rows string) string {
		return `{"title":"` + title + `","columns":["App","MRT"],"rows":` + rows + `}`
	}
	body := func(name string, tables ...string) string {
		return `[{"name":"` + name + `","tables":[` + strings.Join(tables, ",") + `]}]`
	}
	good := body("casestudy", table("Fig. 8", `[["Idle","1.0"]]`), table("Fig. 9", `[["Idle","1.0"]]`))
	for _, pair := range [][2]string{
		{good, good},
		{good, body("casestudy", "null", "null")},
		{body("casestudy", "null"), good},
		{good, body("casestudy", table("Fig. 8", `[["CallIn"]]`), table("Fig. 9", `[]`))},
		{good, body("casestudy", table("Fig. 10", `[]`), table("Fig. 9", `[]`))},
		{good, body("casestudy", `{"title":"Fig. 8","columns":["App"],"rows":[["x"]]}`, table("Fig. 9", `[]`))},
		{good, body("casestudy", table("Fig. 8", `null`))},
		{good, body("tables", table("Fig. 8", `[]`), table("Fig. 9", `[]`))},
		{good, good[:len(good)-1] + `,` + good[1:]},
		{good, `[]`},
		{`null`, `null`},
		{good, `{"name":"casestudy"}`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		results := make([][]SweepResult, 2)
		for i, wire := range [][]byte{a, b} {
			if json.Unmarshal(wire, &results[i]) != nil {
				return
			}
		}
		// The merge appends into the first shard's tables, so count first.
		var want []int
		if len(results[0]) == 1 {
			for ti, tbl := range results[0][0].Tables {
				n := 0
				if tbl != nil {
					n = tbl.Rows()
				}
				if len(results[1]) == 1 && ti < len(results[1][0].Tables) && results[1][0].Tables[ti] != nil {
					n += results[1][0].Tables[ti].Rows()
				}
				want = append(want, n)
			}
		}
		merged, err := MergeShardResults(shards, results)
		if err != nil {
			return
		}
		wire, err := json.Marshal(merged)
		if err != nil {
			t.Fatalf("merged result does not marshal: %v", err)
		}
		var back []SweepResult
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("merged result does not decode: %v\n%s", err, wire)
		}
		if len(back) != 1 || len(back[0].Tables) != len(want) {
			t.Fatalf("merged %d results with %d tables, want 1 with %d", len(back), len(back[0].Tables), len(want))
		}
		for ti, tbl := range back[0].Tables {
			if tbl == nil || tbl.Rows() != want[ti] {
				t.Fatalf("merged table %d = %v, want %d rows", ti, tbl, want[ti])
			}
		}
	})
}
