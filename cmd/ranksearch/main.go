// Command ranksearch answers similarity range queries over a top-k
// ranking dataset using the inverted serving index: given query
// rankings, it prints every indexed ranking within the threshold of
// each query — the single-query counterpart of the join (in the spirit
// of the authors' earlier "sweet spot" similarity-search work).
//
// Usage:
//
//	ranksearch -data rankings.txt -theta 0.2 -query "3 1 4 1 5"
//	ranksearch -data rankings.txt -theta 0.2 -queries queries.txt
//	ranksearch -data rankings.txt -theta 0.2 -id 42   # dataset ranking as query
//
// With -server it becomes a client of a running rankserved daemon
// instead of building a local index:
//
//	ranksearch -server localhost:7357 -theta 0.2 -query "3 1 4 1 5"
//	ranksearch -server localhost:7357 -theta 0.2 -id 42
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"rankjoin"
	"rankjoin/internal/rankings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ranksearch: ")

	var (
		data    = flag.String("data", "", "dataset file (required unless -server)")
		theta   = flag.Float64("theta", 0.2, "normalized distance threshold")
		query   = flag.String("query", "", "one query ranking, item ids best-first")
		queries = flag.String("queries", "", "file of query rankings")
		id      = flag.Int64("id", -1, "use the dataset ranking with this id as query")
		server  = flag.String("server", "", "query a running rankserved at this host:port instead of indexing locally")
	)
	flag.Parse()
	if *server != "" {
		if err := remoteSearch(*server, *theta, *query, *queries, *id); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := rankjoin.ReadRankings(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	idx, err := rankjoin.BuildIndex(rs)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("indexed %d rankings", len(rs))

	var qs []*rankjoin.Ranking
	switch {
	case *query != "":
		q, err := rankings.ParseLine(*query, -1)
		if err != nil {
			log.Fatal(err)
		}
		qs = append(qs, q)
	case *queries != "":
		qf, err := os.Open(*queries)
		if err != nil {
			log.Fatal(err)
		}
		qs, err = rankjoin.ReadRankings(qf)
		qf.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *id >= 0:
		for _, r := range rs {
			if r.ID == *id {
				qs = append(qs, r)
			}
		}
		if len(qs) == 0 {
			log.Fatalf("no ranking with id %d in dataset", *id)
		}
	default:
		log.Fatal("provide -query, -queries or -id")
	}

	for _, q := range qs {
		hits, err := idx.Search(q, *theta)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %v: %d hits\n", q, len(hits))
		for _, h := range hits {
			other := h.A
			if other == q.ID {
				other = h.B
			}
			fmt.Printf("  ranking %d at distance %d\n", other, h.Dist)
		}
	}
}

// remoteSearch answers the same queries through a rankserved daemon's
// /v1/search endpoint: -query and -queries send the ranking inline,
// -id asks the daemon to use its own indexed ranking as the query.
func remoteSearch(addr string, theta float64, query, queries string, id int64) error {
	type request struct {
		Items []rankings.Item `json:"items,omitempty"`
		ID    *int64          `json:"id,omitempty"`
		Theta float64         `json:"theta"`
	}
	var reqs []request
	var labels []string
	switch {
	case query != "":
		q, err := rankings.ParseLine(query, -1)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{Items: q.Items, Theta: theta})
		labels = append(labels, fmt.Sprint(q))
	case queries != "":
		qf, err := os.Open(queries)
		if err != nil {
			return err
		}
		qs, err := rankjoin.ReadRankings(qf)
		qf.Close()
		if err != nil {
			return err
		}
		for _, q := range qs {
			reqs = append(reqs, request{Items: q.Items, Theta: theta})
			labels = append(labels, fmt.Sprint(q))
		}
	case id >= 0:
		reqs = append(reqs, request{ID: &id, Theta: theta})
		labels = append(labels, fmt.Sprintf("#%d", id))
	default:
		return fmt.Errorf("provide -query, -queries or -id")
	}

	url := "http://" + addr + "/v1/search"
	// Each query carries a client-minted X-Request-Id; rankserved
	// honors it, so a failure reported here can be looked up directly
	// at /debug/trace/{id} on the daemon.
	ridBase := fmt.Sprintf("ranksearch-%08x", uint32(time.Now().UnixNano()))
	for i, req := range reqs {
		enc, err := json.Marshal(req)
		if err != nil {
			return err
		}
		rid := fmt.Sprintf("%s-%d", ridBase, i)
		hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(enc))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Request-Id", rid)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return fmt.Errorf("%s (request %s): %w", url, rid, err)
		}
		// The server echoes the id it actually used (ours, unless it
		// re-minted); prefer its echo when correlating errors.
		if echoed := resp.Header.Get("X-Request-Id"); echoed != "" {
			rid = echoed
		}
		var ans struct {
			Hits []struct {
				ID   int64 `json:"id"`
				Dist int   `json:"dist"`
			} `json:"hits"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ans)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s (request %s): %w", url, rid, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s (request %s; see /debug/trace/%s on the daemon)",
				url, resp.StatusCode, ans.Error, rid, rid)
		}
		fmt.Printf("query %s: %d hits\n", labels[i], len(ans.Hits))
		for _, h := range ans.Hits {
			fmt.Printf("  ranking %d at distance %d\n", h.ID, h.Dist)
		}
	}
	return nil
}
