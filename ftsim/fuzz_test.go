package ftsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/ftsim"
)

// FuzzConfigRoundTrip fuzzes the config persistence loop. For any input
// that ParseConfig accepts, three invariants must hold:
//
//  1. the parsed config validates (ParseConfig returns only
//     ready-to-run configs);
//  2. Normalized is idempotent on it (parsing already normalizes, so a
//     second pass must be a fixed point); and
//  3. JSON marshalling round-trips exactly — ParseConfig(c.JSON())
//     yields a config whose JSON is byte-identical, so persisted
//     machine descriptions replay stably forever.
//
// Inputs ParseConfig rejects are fine — the property under test is that
// it rejects them with an error instead of panicking (overflowed cache
// geometry, absurd sizes, unknown fields or enum values).
//
// The committed seed corpus lives in
// testdata/fuzz/FuzzConfigRoundTrip/; `go test -fuzz=FuzzConfigRoundTrip ./ftsim`
// explores from there.
func FuzzConfigRoundTrip(f *testing.F) {
	for _, m := range ftsim.Models() {
		data, err := m.Config().JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"r":2,"fault":{"rate":0.001,"seed":7,"targets":["result","branch"]}}`))
	f.Add([]byte(`{"model":"ss3","majority":true,"persistent":{"pool":"int-alu","unit":1,"bit":12}}`))
	f.Add([]byte(`{"r":2,"fault":{"rate":0.001,"targets":["cosmic"]}}`))
	f.Add([]byte(`{"r":2,"persistent":{"pool":"gpu","unit":0,"bit":3}}`))
	f.Add([]byte(`{"r":2,"persistent":{"pool":"none","unit":0,"bit":3}}`))
	f.Add([]byte(`{"r":1,"memory":{"il1":{"size_bytes":9007199254740993,"ways":3037000500,"line_bytes":3037000499,"hit_latency":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ftsim.ParseConfig(data)
		if err != nil {
			return // rejected without panicking: fine
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseConfig returned an invalid config: %v", err)
		}
		if n := c.Normalized(); !reflect.DeepEqual(c, n) {
			t.Fatalf("Normalized not idempotent:\nparsed:     %+v\nnormalized: %+v", c, n)
		}
		js, err := c.JSON()
		if err != nil {
			t.Fatalf("JSON marshal of a valid config failed: %v", err)
		}
		c2, err := ftsim.ParseConfig(js)
		if err != nil {
			t.Fatalf("re-parse of emitted JSON failed: %v\n%s", err, js)
		}
		js2, err := c2.JSON()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(js, js2) {
			t.Fatalf("JSON round-trip is not a fixed point:\nfirst:  %s\nsecond: %s", js, js2)
		}
	})
}
