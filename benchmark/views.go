package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"

	"repro/client"
	"repro/internal/core"
	"repro/internal/store"
)

// A page view is the composite read op: 16 GETs that together touch every
// read route — 8 shows, 4 finds of different access paths, and the four
// aggregate routes. A single request is too short to time repeatably on a
// shared 2-vCPU machine; 16 of them are not.
const (
	showsPerView = 8
	findLimit    = 10
	findOffsets  = 5 // offsets 0,10,..,40 cycle from view to view
)

// finds are the four /v1/find requests of a view, by access path.
var finds = []struct{ route, query string }{
	{"find_eq", `type = Movie`},      // hash index, large result
	{"find_prefix", `name ^ "The "`}, // B-tree prefix
	{"find_scan", `name ~ walking`},  // unindexed scan
	{"find_and", `type = Person AND attributes.award_winning = true`},
}

// request is one logical request with a call for each rung of the ladder.
type request struct {
	route string
	key   string // distinguishes requests of one route: the URL's query
	path  string // serve rung: GET path?query

	sdk func(ctx context.Context, c *client.Client) (any, error)
	// core and store return how many rows or docs the call produced. store
	// is nil when the core call is served from a view without a store call.
	core  func(ctx context.Context, t *core.Tamer) (int, error)
	store func(ctx context.Context, t *core.Tamer) (int, error)
}

// viewPlan is the seed-determined sequence of page views: the order shows
// are visited in and the order find offsets cycle in.
type viewPlan struct {
	shows   []string
	offsets []int
}

func newViewPlan(seed int64, showNames []string) viewPlan {
	rng := rand.New(rand.NewSource(seed))
	p := viewPlan{shows: make([]string, len(showNames)), offsets: make([]int, findOffsets)}
	for i, j := range rng.Perm(len(showNames)) {
		p.shows[i] = showNames[j]
	}
	for i, j := range rng.Perm(findOffsets) {
		p.offsets[i] = j * findLimit
	}
	return p
}

// view lists the 16 requests of page view i.
func (p viewPlan) view(i int) []request {
	reqs := make([]request, 0, showsPerView+len(finds)+4)
	for j := 0; j < showsPerView; j++ {
		reqs = append(reqs, showRequest(p.shows[(i*showsPerView+j)%len(p.shows)]))
	}
	offset := p.offsets[i%len(p.offsets)]
	for _, f := range finds {
		reqs = append(reqs, findRequest(f.route, f.query, offset))
	}
	return append(reqs, topRequest(), cheapestRequest(), typesRequest(), statsRequest())
}

// distinct lists every distinct request the plan's views hold, once each.
func (p viewPlan) distinct() []request {
	var reqs []request
	for _, name := range p.shows {
		reqs = append(reqs, showRequest(name))
	}
	for _, offset := range p.offsets {
		for _, f := range finds {
			reqs = append(reqs, findRequest(f.route, f.query, offset))
		}
	}
	return append(reqs, topRequest(), cheapestRequest(), typesRequest(), statsRequest())
}

func showRequest(name string) request {
	q := url.Values{"name": {name}}
	return request{
		route: "show", key: name, path: "/v1/show?" + q.Encode(),
		sdk: func(ctx context.Context, c *client.Client) (any, error) { return c.Show(ctx, name) },
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			_, _, err := t.QueryShow(ctx, name)
			return 1, err
		},
		store: func(ctx context.Context, t *core.Tamer) (int, error) {
			docs, err := t.Instances.FindCtx(ctx, store.Contains("text", name))
			return len(docs), err
		},
	}
}

func findRequest(route, query string, offset int) request {
	q := url.Values{"q": {query}, "limit": {strconv.Itoa(findLimit)}}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	filter, err := store.ParseFilter(query)
	if err != nil {
		panic(fmt.Sprintf("benchmark: find query %q does not parse: %v", query, err))
	}
	return request{
		route: route, key: strconv.Itoa(offset), path: "/v1/find?" + q.Encode(),
		sdk: func(ctx context.Context, c *client.Client) (any, error) {
			return c.Find(ctx, query, client.Page{Limit: findLimit, Offset: offset})
		},
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			docs, err := t.FindEntities(ctx, query)
			return len(docs), err
		},
		store: func(ctx context.Context, t *core.Tamer) (int, error) {
			docs, err := t.Entities.FindCtx(ctx, filter)
			return len(docs), err
		},
	}
}

func topRequest() request {
	return request{
		route: "top", path: "/v1/top?limit=10",
		sdk: func(ctx context.Context, c *client.Client) (any, error) { return c.Top(ctx, client.Page{Limit: 10}) },
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			rows, err := t.TopDiscussed(ctx, 0)
			return len(rows), err
		},
	}
}

func cheapestRequest() request {
	return request{
		route: "cheapest", path: "/v1/cheapest?limit=10",
		sdk: func(ctx context.Context, c *client.Client) (any, error) {
			return c.Cheapest(ctx, client.Page{Limit: 10})
		},
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			rows, err := t.CheapestShows(ctx, 0)
			return len(rows), err
		},
	}
}

func typesRequest() request {
	return request{
		route: "types", path: "/v1/types?limit=50",
		sdk: func(ctx context.Context, c *client.Client) (any, error) { return c.Types(ctx, client.Page{Limit: 50}) },
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			rows, err := t.EntityTypeCounts(ctx)
			return len(rows), err
		},
		store: func(ctx context.Context, t *core.Tamer) (int, error) {
			counts, err := t.Entities.DistinctCtx(ctx, "type")
			return len(counts), err
		},
	}
}

func statsRequest() request {
	both := func(ctx context.Context, t *core.Tamer) (int, error) {
		if _, err := t.Instances.StatsCtx(ctx); err != nil {
			return 0, err
		}
		_, err := t.Entities.StatsCtx(ctx)
		return 2, err
	}
	return request{
		route: "stats", path: "/v1/stats",
		sdk: func(ctx context.Context, c *client.Client) (any, error) { return c.Stats(ctx) },
		core: func(ctx context.Context, t *core.Tamer) (int, error) {
			if _, err := t.InstanceStatsCtx(ctx); err != nil {
				return 0, err
			}
			_, err := t.EntityStatsCtx(ctx)
			return 2, err
		},
		store: both,
	}
}

// digest is a 64-bit FNV-1a hash of a reply's JSON form, which is canonical
// because encoding/json sorts map keys.
func digest(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	_, _ = h.Write(data)
	return h.Sum64(), nil
}

// sdkView issues a view's requests through the SDK one after another and
// returns the replies in request order.
func sdkView(ctx context.Context, c *client.Client, reqs []request) ([]any, error) {
	replies := make([]any, len(reqs))
	for i, r := range reqs {
		reply, err := r.sdk(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", r.route, r.key, err)
		}
		replies[i] = reply
	}
	return replies, nil
}

// replyBook remembers each distinct request's reply digest. Within one data
// generation a request must always get the same reply.
type replyBook map[string]uint64

// check digests the replies and compares them with what the book holds,
// adding the ones it has not seen.
func (b replyBook) check(reqs []request, replies []any) error {
	for i, r := range reqs {
		d, err := digest(replies[i])
		if err != nil {
			return err
		}
		id := r.route + " " + r.key
		if prev, ok := b[id]; ok && prev != d {
			return fmt.Errorf("%s: reply changed within one data generation (%016x, was %016x)", id, d, prev)
		}
		b[id] = d
	}
	return nil
}

// serveGET runs one GET through the handler on a recorder and returns the
// body size; any status but 200 is an error.
func serveGET(ctx context.Context, h http.Handler, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Len(), nil
}

// fusedShowNames lists the SHOW_NAME of every fused record, in the fused
// view's (sorted) order.
func fusedShowNames(t *core.Tamer) []string {
	var names []string
	for _, r := range t.FusedRecords() {
		if name := r.GetString("SHOW_NAME"); name != "" {
			names = append(names, name)
		}
	}
	return names
}
