package knn

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// TestScrapeConcurrent is the Slow ring's race gate: searches recording
// their ops into the ring and the registry while scrapers hammer
// /debug/slow, /debug/requests and /metrics must neither race (the -race CI
// run covers this file) nor tear a record — every op read back is whole.
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
				Search(idx, randQuery(rng, 4, 1), 5+i%7, dominance.Hyperbola{}, algo)
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
	readWG.Add(3)
	go scrape("/debug/slow")
	go scrape("/debug/requests")
	go scrape("/metrics")

	// A direct reader too: the ring without the HTTP layer, checking records
	// for tearing while writers are active. Every search above asks for
	// k in [5, 11], and a record's counts belong to one search.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, op := range obs.Slow.Dump() {
				if op.K < 5 || op.K > 11 || op.LatencyNs <= 0 || op.Nodes == 0 || op.Items < op.Pruned {
					t.Errorf("torn record: %+v", op)
					return
				}
			}
		}
	}()

	searchWG.Wait()
	close(stop)
	readWG.Wait()

	if got := obs.Lookup("knn.searches").Load(); got != searchers*rounds {
		t.Errorf("knn.searches = %d, want %d", got, searchers*rounds)
	}
	if len(obs.Slow.Dump()) == 0 {
		t.Error("no ops retained after concurrent run")
	}
}
