package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rankjoin/internal/rankings"
)

// fuzzServer is shared across fuzz iterations: the daemon is
// long-lived in production, so state accumulated by earlier (possibly
// successful) fuzz inputs is part of the attack surface.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func sharedFuzzServer() *Server {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Config{CacheSize: 64})
		for _, r := range []*rankings.Ranking{
			rankings.MustNew(1, []rankings.Item{1, 2, 3, 4, 5}),
			rankings.MustNew(2, []rankings.Item{5, 4, 3, 2, 1}),
		} {
			if err := fuzzSrv.Index().Insert(r); err != nil {
				panic(err)
			}
		}
	})
	return fuzzSrv
}

// FuzzAPI throws arbitrary bodies at every mutating/query endpoint: the
// daemon must neither panic nor answer 5xx to malformed input (the only
// 5xx the API can emit are a deadline and a failed peer, neither of
// which a body can cause).
func FuzzAPI(f *testing.F) {
	seeds := []string{
		`{"items":[1,2,3,4,5],"theta":0.2}`,
		`{"line":"1 2 3 4 5","theta":0.9}`,
		`{"id":1,"theta":0.5}`,
		`{"items":[1,2,3,4,5],"k":3}`,
		`{"rankings":[{"id":7,"items":[9,8,7,6,5]}]}`,
		`{"ids":[1,2,3]}`,
		`{"rankings":[{"id":1,"items":[1,2]},{"id":2,"items":[2,1]}],"theta":0.3}`,
		`{"theta":1e308}`,
		`{"items":[2147483647,-2147483648],"theta":0.1}`,
		`{"items":[1,1,1],"theta":0.1}`,
		`{`, `null`, `[]`, `"x"`, `{"items":"nope","theta":0}`,
		`{"id":-9223372036854775808,"theta":0}`,
		strings.Repeat(`{"items":[1],`, 50),
	}
	paths := []string{"/v1/search", "/v1/knn", "/v1/insert", "/v1/delete", "/v1/join"}
	for _, s := range seeds {
		for i := range paths {
			f.Add(i, s)
		}
	}
	f.Fuzz(func(t *testing.T, pathIdx int, body string) {
		s := sharedFuzzServer()
		path := paths[((pathIdx%len(paths))+len(paths))%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %q: status %d body %s", path, body, rec.Code, rec.Body.String())
		}
	})
}
