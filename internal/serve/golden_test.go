package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/v1_bodies.golden from this run")

// goldenPaths are the nine reads of a page view — a show, a find down each
// access path, and the four aggregate routes — then one 404 and one 400.
var goldenPaths = []string{
	"/v1/show?name=Matilda",
	"/v1/find?q=type+%3D+Movie&limit=10&offset=20",
	"/v1/find?q=name+%5E+%22The+%22&limit=10",
	"/v1/find?q=name+~+walking&limit=10",
	"/v1/find?q=type+%3D+Person+AND+attributes.award_winning+%3D+true&limit=10",
	"/v1/top?limit=10",
	"/v1/cheapest?limit=10",
	"/v1/types",
	"/v1/stats",
	"/v1/show?name=No+Such+Show",
	"/v1/top?limit=banana",
}

// TestV1BodiesGolden pins the /v1 wire: every status line, content type and
// body byte of the golden paths, so a change to how a response is encoded
// cannot change what a client reads.
func TestV1BodiesGolden(t *testing.T) {
	s := testServer(t)
	var got bytes.Buffer
	for _, path := range goldenPaths {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(&got, "GET %s\n%d %s\n%s\n", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	golden := filepath.Join("testdata", "v1_bodies.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/v1 bodies differ from %s (rerun with -update if intended)\ngot:\n%s", golden, got.Bytes())
	}
}
