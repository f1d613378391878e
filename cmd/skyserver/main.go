// Command skyserver runs the archive's public WWW tier: the versioned /v1
// REST API for bounded interactive queries, schema discovery, cone
// searches, EXPLAIN, and asynchronous batch jobs over a loaded archive.
//
// Usage:
//
//	skyserver -archive archive/ -addr :8080
//	curl 'localhost:8080/v1/query?q=SELECT+objid,ra,dec,r+FROM+tag+WHERE+r+%3C+20&format=csv'
//	curl 'localhost:8080/v1/cone?ra=185&dec=32&radius=10'
//	curl -X POST localhost:8080/v1/jobs -d '{"query":"SELECT objid FROM photoobj"}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"sdss/internal/archive"
	"sdss/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skyserver: ")
	var (
		dir        = flag.String("archive", "archive", "archive directory")
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.Int("shards", 0, "store shard slices (0 = adopt the archive's recorded count, else 1)")
		workers    = flag.Int("workers", 0, "goroutines each scan runs on (0 = GOMAXPROCS)")
		maxRows    = flag.Int("max-rows", 0, "interactive query row cap (0 = 10000)")
		maxTimeout = flag.Duration("max-timeout", 0, "interactive query time cap (0 = 30s)")
		jobs       = flag.Int("jobs", 0, "concurrent batch jobs (0 = 2)")
		jobQueue   = flag.Int("job-queue", 0, "batch admission queue depth (0 = 32)")
		jobTTL     = flag.Duration("job-ttl", 0, "finished job retention (0 = 15m)")
	)
	flag.Parse()

	a, err := core.Create(*dir, core.Options{Shards: *shards, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	www := archive.NewWWW(a.Engine())
	www.MaxRows = *maxRows
	www.MaxTimeout = *maxTimeout
	www.Jobs = archive.NewJobManager(a.Engine(), archive.JobConfig{
		MaxConcurrent: *jobs,
		MaxQueued:     *jobQueue,
		TTL:           *jobTTL,
	})

	st := a.Stats()
	fmt.Printf("serving archive %s (%d objects, %d containers, %d shards, %d zone-map bytes) on %s\n",
		*dir, st.PhotoObjects, st.Containers, st.Shards, st.ZoneMapBytes, *addr)
	fmt.Println("endpoints: /v1/status /v1/tables /v1/query /v1/explain[?analyze=1] /v1/cone /v1/jobs")
	srv := &http.Server{Addr: *addr, Handler: www.Handler(), ReadHeaderTimeout: 10 * time.Second}
	log.Fatal(srv.ListenAndServe())
}
