package server

// End-to-end serve-path benches: HTTP search latency against a standing
// catalog, idle and under concurrent HTTP ingest. The CI bench smoke runs
// these once to keep the serve path exercised.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func benchServer(b *testing.B) (*Server, *httptest.Server, []byte) {
	b.Helper()
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tab := TableJSON{
			Name: fmt.Sprintf("corpus%03d", i),
			Columns: []ColumnJSON{
				{Name: "cust", Values: vals("u", i*7, i*7+300)},
				{Name: "town", Values: vals("c", i*5, i*5+300)},
			},
		}
		t, err := tab.toTable("")
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Index().Add(t); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			b.Error(err)
		}
	})
	searchBody, err := json.Marshal(SearchRequest{
		Table: TableJSON{Name: "query", Columns: []ColumnJSON{
			{Name: "customer_id", Values: vals("u", 0, 300)},
		}},
		Mode: "join", K: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, ts, searchBody
}

func postSearch(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("search status %d", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Results) == 0 {
		b.Fatal("empty search results")
	}
}

// BenchmarkServeSearchIdle is the serving baseline: HTTP search latency
// with no concurrent ingest.
func BenchmarkServeSearchIdle(b *testing.B) {
	_, ts, body := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSearch(b, ts.URL, body)
	}
}

// BenchmarkServeSearchUnderIngest measures HTTP search latency while a
// client continuously PUTs table versions: ingest is profiled per request,
// micro-batched, and applied copy-on-write, so searches never queue behind
// the writer.
func BenchmarkServeSearchUnderIngest(b *testing.B) {
	s, ts, body := benchServer(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ingested int
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%02d", i%16)
			payload, err := json.Marshal(UpsertRequest{Columns: []ColumnJSON{
				{Name: "cust", Values: vals("u", i*3, i*3+300)},
			}})
			if err != nil {
				b.Error(err)
				return
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/tables/"+name, bytes.NewReader(payload))
			if err != nil {
				b.Error(err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("ingest status %d", resp.StatusCode)
				return
			}
			ingested++
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSearch(b, ts.URL, body)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	s.Index().WaitCompaction()
	b.ReportMetric(float64(ingested)/float64(b.N), "upserts/search")
}
