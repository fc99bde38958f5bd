package api

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/ftsim"
)

// FuzzParseSubmission fuzzes the campaign submission body, the daemon's
// front door. For any input:
//
//  1. ParseSubmission does not panic;
//  2. an accepted request meets the invariants ParseSubmission documents:
//     1..MaxTrialsPerRequest trials, a non-negative Shards hint and a
//     shard range inside its parent grid;
//  3. json.Marshal of the request parses back to a DeepEqual request; and
//  4. every trial's Asm source assembles or fails with an error, as it
//     does at submit.
//
// The committed seed corpus lives in testdata/fuzz/FuzzParseSubmission/.
func FuzzParseSubmission(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "testdata", "ss2.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"name":"grid","seed":3,"workers":2,"shards":2,"shard":{"offset":1,"total":4},"trials":[` +
		`{"label":"a","asm":"loop: addi r1, r1, 1\nout r1\nhalt\n","config":{"model":"ss2","r":2}},` +
		`{"benchmark":"gcc","config":{"r":1,"fault":{"rate":0.001,"targets":["result"]}}}]}`))
	for _, body := range rejectedBodies {
		f.Add([]byte(body))
	}
	for _, body := range invalidConfigBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(unknownTargetGrid))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSubmission(data)
		if err != nil {
			return
		}
		if n := len(req.Trials); n < 1 || n > MaxTrialsPerRequest {
			t.Fatalf("accepted %d trials", n)
		}
		if req.Shards < 0 {
			t.Fatalf("accepted shard hint %d", req.Shards)
		}
		if s := req.Shard; s != nil && (s.Offset < 0 || s.Offset >= s.Total || len(req.Trials) > s.Total-s.Offset) {
			t.Fatalf("accepted %d trials at shard %+v", len(req.Trials), *s)
		}
		js, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := ParseSubmission(js)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", js, err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\nfirst:  %+v\nsecond: %+v", req, again)
		}
		for _, tr := range req.Trials {
			if tr.Asm != "" {
				ftsim.Assemble(tr.Label, tr.Asm)
			}
		}
	})
}
