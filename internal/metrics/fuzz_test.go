package metrics

// Robustness fuzzing for the report codec this package owns: arbitrary
// bytes must come back as a clean error or a document that round-trips
// byte-for-byte through the canonical encoder. The committed seeds under testdata/fuzz cover the
// accept path, schema rejection, and the unknown-field rejection the
// strict decoder promises; the codecstrict analyzer fails the lint if
// the corpus goes missing.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ebcp/internal/ebcperr"
)

func FuzzReportDecode(f *testing.F) {
	f.Add([]byte(`{"schema": "ebcp.report/v1", "tool": "ebcpsim"}`))
	f.Add([]byte(`{"schema": "ebcp.report/v1", "tool": "ebcpexp", "runs": [{"name": "db2"}]}`))
	f.Add([]byte(`{"schema": "ebcp.bench/v1"}`))
	f.Add([]byte(`{"schema": "ebcp.report/v1", "zap": 1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReportV1(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ebcperr.ErrBadReport) {
				t.Fatalf("rejection not ErrBadReport: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, rep); err != nil {
			t.Fatalf("re-encoding accepted report: %v", err)
		}
		again, err := DecodeReportV1(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical form of accepted report does not decode: %v", err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Errorf("report changed across encode/decode round-trip")
		}
	})
}
