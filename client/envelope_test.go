package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/dterr"
)

// TestEnvelopeCases pins how each kind of response body surfaces: the typed
// error code a caller branches on, or success with the degraded count.
func TestEnvelopeCases(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		body       string
		want       dterr.Code // "" is success
		missing    int
	}{
		{"malformed JSON on a 200", 200, "", `{"data": {"instance": `, dterr.CodeInternal, 0},
		{"200 without data", 200, "", `{"degraded": {"shards_missing": 1}}`, dterr.CodeInternal, 0},
		{"data of the wrong shape", 200, "", `{"data": {"instance": [1, 2]}}`, dterr.CodeInternal, 0},
		{"4xx with an error envelope", 404, "", `{"error": {"code": "not_found", "message": "gone"}}`, dterr.CodeNotFound, 0},
		{"4xx with a body that is not JSON", 400, "", `<html>bad request</html>`, dterr.CodeInvalidArgument, 0},
		{"429 with Retry-After", 429, "1", `{"error": {"code": "busy", "message": "shed"}}`, dterr.CodeBusy, 0},
		{"429 with Retry-After and no envelope", 429, "1", `slow down`, dterr.CodeBusy, 0},
		{"degraded envelope", 200, "", `{"data": {"instance": {"Count": 3}}, "degraded": {"shards_missing": 2}}`, "", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer ts.Close()
			c := New(ts.URL, WithRetries(0), WithBackoff(time.Millisecond))
			ctx, deg := WithDegraded(context.Background())
			stats, err := c.Stats(ctx)
			if tc.want == "" {
				if err != nil || stats.Instance.Count != 3 || deg.ShardsMissing != tc.missing {
					t.Fatalf("stats %+v, %d shards missing, %v", stats, deg.ShardsMissing, err)
				}
				return
			}
			if dterr.CodeOf(err) != tc.want {
				t.Fatalf("error %v has code %q, want %q", err, dterr.CodeOf(err), tc.want)
			}
		})
	}
}
