package knn

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// TestScrapeConcurrent is the registry's race gate: searches publishing
// into the counters while scrapers hammer /metrics
// and /debug/requests must not race (the -race CI run covers this file),
// and a library search leaves nothing in the Slow ring, which holds served
// requests only. Torn ring records are TestRingNeverTears' subject.
func TestScrapeConcurrent(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	obs.ResetForTest()

	rng := rand.New(rand.NewSource(321))
	idx := index(randItems(rng, 4, 700, 2), 4)

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	const (
		searchers = 4
		rounds    = 200
	)
	var searchWG sync.WaitGroup
	var nodes atomic.Uint64 // Σ Stats.NodesVisited of the searches
	for w := 0; w < searchers; w++ {
		searchWG.Add(1)
		go func(seed int64) {
			defer searchWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				algo := DF
				if i%2 == 0 {
					algo = HS
				}
				res := Search(idx, randQuery(rng, 4, 1), 5+i%7, dominance.Hyperbola{}, algo)
				nodes.Add(uint64(res.Stats.NodesVisited))
			}
		}(int64(w + 1))
	}

	stop := make(chan struct{})
	var readWG sync.WaitGroup

	// One scraper per endpoint, polling until the searchers finish.
	scrape := func(path string) {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Errorf("reading %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("%s status = %d", path, resp.StatusCode)
				return
			}
		}
	}
	readWG.Add(2)
	go scrape("/debug/requests")
	go scrape("/metrics")

	searchWG.Wait()
	close(stop)
	readWG.Wait()

	if got, want := obs.Lookup("knn.nodes_visited").Load(), nodes.Load(); got != want {
		t.Errorf("knn.nodes_visited = %d, the searches' Stats sum to %d", got, want)
	}
	if n := len(obs.Slow.Dump()); n != 0 {
		t.Errorf("library searches left %d ops in the Slow ring, want 0", n)
	}
}
