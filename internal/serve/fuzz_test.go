package serve

// Robustness fuzzing for the serving layer's two schema codecs: the
// ebcp.runreq/v1 request body (attacker-adjacent: it arrives over
// HTTP) and the ebcp.servestats/v1 /metrics document. Arbitrary bytes
// must produce a clean error or a validated value — never a panic —
// and whatever DecodeRunRequest accepts must survive its own validate.
// The committed seeds under testdata/fuzz keep the codecstrict
// analyzer's corpus requirement honest.

import (
	"bytes"
	"testing"
)

func FuzzRunRequestDecode(f *testing.F) {
	f.Add([]byte(`{"schema":"ebcp.runreq/v1","experiment":"table1","warm_insts":200000,"measure_insts":100000,"bench_scale":0.05}`))
	f.Add([]byte(`{"schema":"ebcp.runreq/v1","spec":{"schema":"ebcp.spec/v1","id":"x"}}`))
	f.Add([]byte(`{"schema":"ebcp.runreq/v1","experiment":"table1","timeout_ms":50}`))
	f.Add([]byte(`{"schema":"ebcp.report/v1"}`))
	f.Add([]byte(`{"schema":"ebcp.runreq/v1","zap":1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rq.Schema != RequestSchemaV1 {
			t.Fatalf("accepted request carries schema %q", rq.Schema)
		}
		// validate may reject (that's its job); it must only not panic.
		_, _ = rq.validate()
	})
}

func FuzzStatsDecode(f *testing.F) {
	f.Add([]byte(`{"schema":"ebcp.servestats/v1","requests_received":1,"requests_completed":1,"requests_failed":0,"requests_rejected":0,"queued":0,"inflight":0,"sim_runs_total":1,"sim_shared_hits_total":0,"queue_wait_us":{},"request_us":{},"cache":{}}`))
	f.Add([]byte(`{"schema":"ebcp.runreq/v1"}`))
	f.Add([]byte(`{"schema":"ebcp.servestats/v1","zap":1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStatsV1(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Schema != StatsSchemaV1 {
			t.Fatalf("accepted stats carries schema %q", st.Schema)
		}
	})
}
