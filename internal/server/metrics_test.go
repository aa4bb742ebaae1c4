package server

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rankjoin/internal/testutil"
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// promFamily is the HELP/TYPE metadata of one metric family.
type promFamily struct {
	help string
	typ  string
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseProm is a deliberately strict parser for the Prometheus text
// exposition format 0.0.4 — stricter than real scrapers, so any
// formatting drift in the writer fails loudly. It enforces: no blank
// lines, HELP then TYPE before any sample of a family, known TYPE
// values, valid metric/label names, quoted and escape-correct label
// values, and float-parsable sample values.
func parseProm(t *testing.T, text string) (map[string]promFamily, []promSample) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	fams := make(map[string]promFamily)
	var samples []promSample
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[0] != "#" {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			name := parts[2]
			if !validMetricName(name) {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
			switch parts[1] {
			case "HELP":
				f := fams[name]
				if f.help != "" {
					t.Fatalf("line %d: duplicate HELP for %q", ln+1, name)
				}
				f.help = parts[3]
				fams[name] = f
			case "TYPE":
				f := fams[name]
				if f.typ != "" {
					t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
				}
				if f.help == "" {
					t.Fatalf("line %d: TYPE for %q before its HELP", ln+1, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown TYPE %q for %q", ln+1, parts[3], name)
				}
				f.typ = parts[3]
				fams[name] = f
			default:
				t.Fatalf("line %d: unknown comment keyword %q", ln+1, parts[1])
			}
			continue
		}
		samples = append(samples, parsePromSample(t, ln+1, line))
	}
	return fams, samples
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("line %d (%q): "+format, append([]any{ln, line}, args...)...)
	}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		fatalf("no value separator")
	}
	s := promSample{name: line[:i], labels: map[string]string{}, line: line}
	if !validMetricName(s.name) {
		fatalf("bad metric name %q", s.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for len(rest) > 0 && rest[0] != '}' {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				fatalf("label without '='")
			}
			lname := rest[:eq]
			if !validMetricName(lname) || strings.Contains(lname, ":") {
				fatalf("bad label name %q", lname)
			}
			if _, dup := s.labels[lname]; dup {
				fatalf("duplicate label %q", lname)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				fatalf("label value for %q not quoted", lname)
			}
			rest = rest[1:]
			var val strings.Builder
		scan:
			for {
				if len(rest) == 0 {
					fatalf("unterminated label value for %q", lname)
				}
				c := rest[0]
				rest = rest[1:]
				switch c {
				case '"':
					break scan
				case '\\':
					if len(rest) == 0 {
						fatalf("dangling escape in label %q", lname)
					}
					switch rest[0] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						fatalf("bad escape \\%c in label %q", rest[0], lname)
					}
					rest = rest[1:]
				case '\n':
					fatalf("raw newline in label %q", lname)
				default:
					val.WriteByte(c)
				}
			}
			s.labels[lname] = val.String()
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
		if len(rest) == 0 || rest[0] != '}' {
			fatalf("unterminated label set")
		}
		rest = rest[1:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		fatalf("expected single space before value")
	}
	raw := rest[1:]
	if raw == "" || strings.ContainsAny(raw, " \t") {
		fatalf("malformed value %q", raw)
	}
	var err error
	if raw == "+Inf" {
		s.value = math.Inf(1)
	} else if s.value, err = strconv.ParseFloat(raw, 64); err != nil {
		fatalf("unparsable value %q: %v", raw, err)
	}
	return s
}

// familyOf resolves a sample name to its metric family, folding the
// histogram series suffixes onto their base family.
func familyOf(fams map[string]promFamily, name string) (string, promFamily, bool) {
	if f, ok := fams[name]; ok {
		return name, f, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if f, ok := fams[base]; ok && f.typ == "histogram" {
			return base, f, true
		}
	}
	return "", promFamily{}, false
}

// labelKey serializes a label set (minus `le`) for grouping histogram
// series that belong to one underlying observation stream.
func labelKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"\x00"+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// checkHistograms verifies _bucket/_sum/_count consistency for every
// histogram label set: buckets cumulative and monotone in le, the +Inf
// bucket present and equal to _count, and _sum present.
func checkHistograms(t *testing.T, fams map[string]promFamily, samples []promSample) {
	t.Helper()
	type series struct {
		buckets map[float64]float64
		sum     map[string]float64 // "_sum"/"_count" → value
	}
	hist := make(map[string]*series) // family + labelKey
	for _, s := range samples {
		base, f, ok := familyOf(fams, s.name)
		if !ok || f.typ != "histogram" {
			continue
		}
		key := base + "\x02" + labelKey(s.labels)
		sr := hist[key]
		if sr == nil {
			sr = &series{buckets: map[float64]float64{}, sum: map[string]float64{}}
			hist[key] = sr
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, lok := s.labels["le"]
			if !lok {
				t.Errorf("%s: histogram bucket without le label", s.line)
				continue
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Errorf("%s: unparsable le %q", s.line, le)
					continue
				}
			}
			if _, dup := sr.buckets[bound]; dup {
				t.Errorf("%s: duplicate bucket le=%q", s.line, le)
			}
			sr.buckets[bound] = s.value
		case strings.HasSuffix(s.name, "_sum"), strings.HasSuffix(s.name, "_count"):
			sr.sum[s.name[strings.LastIndexByte(s.name, '_'):]] = s.value
		default:
			t.Errorf("%s: bare sample of histogram family %q", s.line, base)
		}
	}
	for key, sr := range hist {
		name := strings.ReplaceAll(strings.ReplaceAll(
			strings.SplitN(key, "\x02", 2)[0]+"{"+labelKey(filterKeyLabels(key))+"}",
			"\x00", "="), "\x01", ",")
		inf, ok := sr.buckets[math.Inf(1)]
		if !ok {
			t.Errorf("%s: missing le=\"+Inf\" bucket", name)
			continue
		}
		count, ok := sr.sum["_count"]
		if !ok {
			t.Errorf("%s: missing _count", name)
		} else if inf != count {
			t.Errorf("%s: +Inf bucket %v != _count %v", name, inf, count)
		}
		if _, ok := sr.sum["_sum"]; !ok {
			t.Errorf("%s: missing _sum", name)
		}
		bounds := make([]float64, 0, len(sr.buckets))
		for b := range sr.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prev := -1.0
		for _, b := range bounds {
			if v := sr.buckets[b]; v < prev {
				t.Errorf("%s: bucket le=%v count %v < previous %v (not cumulative)", name, b, v, prev)
			} else {
				prev = v
			}
		}
	}
}

// filterKeyLabels recovers a label map from a hist grouping key, for
// error messages only.
func filterKeyLabels(key string) map[string]string {
	out := map[string]string{}
	parts := strings.SplitN(key, "\x02", 2)
	if len(parts) < 2 || parts[1] == "" {
		return out
	}
	for _, p := range strings.Split(parts[1], "\x01") {
		if kv := strings.SplitN(p, "\x00", 2); len(kv) == 2 {
			out[kv[0]] = kv[1]
		}
	}
	return out
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") ||
		!strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q, want text/plain version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition drives real traffic through the server and then
// strict-parses /metrics: grammar, HELP/TYPE coverage, histogram
// consistency, the full required-series registry, and the filter
// ledger's conservation law as seen through the exposition.
func TestMetricsExposition(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const k = 10
	rs := testutil.ClusteredDataset(rng, 40, 4, k, 30*k)
	_, ts := newTestServer(t, Config{})
	insertRankings(t, ts.URL, rs)

	for _, q := range rs[:6] {
		searchHits(t, ts.URL, map[string]any{"items": q.Items, "theta": 0.25})
	}
	// Repeat one query so the cache-hit counter moves.
	searchHits(t, ts.URL, map[string]any{"items": rs[0].Items, "theta": 0.25})
	post(t, ts.URL+"/v1/knn", map[string]any{"id": rs[1].ID, "k": 5})

	text := scrapeMetrics(t, ts.URL)
	fams, samples := parseProm(t, text)

	// Every sample belongs to a family with HELP and TYPE.
	for _, s := range samples {
		if _, f, ok := familyOf(fams, s.name); !ok || f.help == "" || f.typ == "" {
			t.Errorf("%s: sample without preceding HELP+TYPE", s.line)
		}
	}
	// Counters follow the _total naming convention and never go negative.
	for _, s := range samples {
		base, f, _ := familyOf(fams, s.name)
		if f.typ == "counter" && !strings.HasSuffix(base, "_total") {
			t.Errorf("counter family %q does not end in _total", base)
		}
		if f.typ == "counter" && s.value < 0 {
			t.Errorf("%s: negative counter", s.line)
		}
	}
	checkHistograms(t, fams, samples)

	find := func(name string, labels map[string]string) (float64, bool) {
	next:
		for _, s := range samples {
			if s.name != name {
				continue
			}
			for lk, lv := range labels {
				if s.labels[lk] != lv {
					continue next
				}
			}
			return s.value, true
		}
		return 0, false
	}
	mustFind := func(name string, labels map[string]string) float64 {
		t.Helper()
		v, ok := find(name, labels)
		if !ok {
			t.Errorf("required series %s%v missing", name, labels)
		}
		return v
	}

	// The required-series registry (see DESIGN.md §12): one entry per
	// exported family, with the label shapes the dashboards key on.
	if got := mustFind("rankserved_http_requests_total", map[string]string{"path": "/v1/search"}); got < 7 {
		t.Errorf("search requests_total = %v, want >= 7", got)
	}
	mustFind("rankserved_http_requests_total", map[string]string{"path": "/v1/knn"})
	mustFind("rankserved_http_request_errors_total", map[string]string{"path": "/v1/search"})
	if got := mustFind("rankserved_http_request_duration_seconds_count", map[string]string{"path": "/v1/search"}); got < 7 {
		t.Errorf("search duration _count = %v, want >= 7", got)
	}
	if got := mustFind("rankserved_cache_hits_total", nil); got < 1 {
		t.Errorf("cache_hits_total = %v, want >= 1", got)
	}
	mustFind("rankserved_cache_misses_total", nil)
	mustFind("rankserved_cache_entries", nil)
	mustFind("rankserved_cache_capacity", nil)
	if got := mustFind("rankserved_sweeps_total", nil); got < 1 {
		t.Errorf("sweeps_total = %v, want >= 1", got)
	}
	mustFind("rankserved_uptime_seconds", nil)
	mustFind("rankserved_index_k", nil)
	if got := mustFind("rankserved_index_size", nil); got != float64(len(rs)) {
		t.Errorf("index_size = %v, want %d", got, len(rs))
	}
	mustFind("rankserved_shard_size", map[string]string{"shard": "0"})
	mustFind("rankserved_shard_epoch", map[string]string{"shard": "0"})
	mustFind("rankserved_shard_pivots", map[string]string{"shard": "0"})
	mustFind("rankserved_shard_repivots_total", map[string]string{"shard": "0"})
	mustFind("rankserved_traces_sampled_total", nil)
	mustFind("rankserved_slow_requests_total", nil)

	// Filter-ledger conservation as seen by a scraper: the per-fate
	// candidate counters sum to the generated counter.
	gen := mustFind("rankserved_filter_generated_total", nil)
	sumFates := 0.0
	for _, fate := range []string{"pruned_prefix", "pruned_signature", "pruned_position",
		"pruned_triangle", "accepted_unverified", "verified"} {
		sumFates += mustFind("rankserved_filter_candidates_total", map[string]string{"fate": fate})
	}
	if gen != sumFates {
		t.Errorf("filter conservation: generated %v != sum of fates %v", gen, sumFates)
	}
	mustFind("rankserved_filter_emitted_total", nil)
}

// TestMetricsShardSeriesComplete checks every shard appears in the
// per-shard gauges — a scrape must never silently drop shards.
func TestMetricsShardSeriesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	rs := testutil.RandDataset(rng, 30, 6, 100)
	s, ts := newTestServer(t, Config{})
	insertRankings(t, ts.URL, rs)

	_, samples := parseProm(t, scrapeMetrics(t, ts.URL))
	shards := s.Index().NumShards()
	for _, name := range []string{"rankserved_shard_size", "rankserved_shard_epoch",
		"rankserved_shard_pivots", "rankserved_shard_repivots_total"} {
		seen := map[string]bool{}
		for _, smp := range samples {
			if smp.name == name {
				seen[smp.labels["shard"]] = true
			}
		}
		if len(seen) != shards {
			t.Errorf("%s: %d shard series, want %d", name, len(seen), shards)
		}
	}
}
