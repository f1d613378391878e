package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sdss/internal/archive"
	"sdss/internal/catalog"
	"sdss/internal/core"
	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/skygen"
)

// survey is the generated input: the objects skygen produced (kept for the
// oracle) and the FITS chunk files written from them.
type survey struct {
	files     []string
	fitsBytes int64
	photo     []*catalog.PhotoObj
	spec      []*catalog.SpecObj
	nPhoto    int
	nSpec     int
	// userBytes is the raw record footprint the archive is asked to hold:
	// photo + tag + spec records.
	userBytes int64
	genDur    time.Duration
	writeDur  time.Duration
}

// rows is the number of records a full load makes queryable.
func (sv *survey) rows() int { return 2*sv.nPhoto + sv.nSpec }

// surveySeed is the one sky every run observes. The data set is fixed and
// -seed draws the requests made of it: skygen's clustered galaxies make pair
// counts, and so a join's work, swing by a fifth from one sky to the next,
// which would drown any change to the engine.
const surveySeed = 20000608

// generateSurvey runs skygen and writes the FITS chunk files under dir, as
// cmd/skygen does.
func generateSurvey(dir string, objects, nChunks int) (*survey, error) {
	sv := &survey{}
	params := skygen.Default(surveySeed, objects)
	for i := 0; i < nChunks; i++ {
		t := time.Now()
		ch, err := skygen.GenerateChunk(params, i, nChunks)
		if err != nil {
			return nil, err
		}
		sv.genDur += time.Since(t)
		path := filepath.Join(dir, fmt.Sprintf("chunk%04d.fits", i))
		t = time.Now()
		if err := load.WriteChunkFile(path, ch, 1024); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		sv.writeDur += time.Since(t)
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		sv.fitsBytes += info.Size()
		sv.files = append(sv.files, path)
		for k := range ch.Photo {
			sv.photo = append(sv.photo, &ch.Photo[k])
		}
		for k := range ch.Spec {
			sv.spec = append(sv.spec, &ch.Spec[k])
		}
	}
	sv.nPhoto, sv.nSpec = len(sv.photo), len(sv.spec)
	sv.userBytes = int64(len(sv.photo))*int64(catalog.PhotoObjSize+catalog.TagSize) +
		int64(len(sv.spec))*int64(catalog.SpecObjSize)
	return sv, nil
}

// built is an archive loaded from chunk files, flushed, and reopened from
// its directory the way a starting skyserver finds it.
type built struct {
	arch *core.Archive
	// storedBytes is the flushed directory's size; the caller fills it in
	// (dirBytes) where it wants it, outside any timed stretch.
	storedBytes int64
	readDur     time.Duration
	loadDur     time.Duration
	sortDur     time.Duration
	flushDur    time.Duration
	openDur     time.Duration
}

// buildArchive makes the calls cmd/skyload makes (ReadChunkFile → Create →
// LoadChunk → Sort → Flush) into dir, then reopens dir as cmd/skyserver
// would.
//
// With a tracer, every call is also recorded as a span of operation op
// under parent.
func buildArchive(dir string, opts core.Options, files []string, tr *tracer, op, parent int) (*built, error) {
	b := &built{}
	a, err := core.Create(dir, opts)
	if err != nil {
		return nil, err
	}
	for _, path := range files {
		s, t := tr.begin(op, spanReadFITS, parent), time.Now()
		ch, _, err := load.ReadChunkFile(path)
		b.readDur += time.Since(t)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		s, t = tr.begin(op, spanChunk, parent), time.Now()
		_, err = a.LoadChunk(ch)
		b.loadDur += time.Since(t)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	s, t := tr.begin(op, spanSort, parent), time.Now()
	a.Sort()
	b.sortDur = time.Since(t)
	tr.end(s)
	s, t = tr.begin(op, spanFlush, parent), time.Now()
	err = a.Flush()
	b.flushDur = time.Since(t)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s, t = tr.begin(op, spanOpen, parent), time.Now()
	b.arch, err = core.Create(dir, opts)
	b.openDur = time.Since(t)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", dir, err)
	}
	return b, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// tableCounts runs COUNT(*) on each table of the archive.
func tableCounts(ctx context.Context, a *core.Archive) (photo, tag, spec int64, err error) {
	count := func(table string) (int64, error) {
		rows, err := a.Query(ctx, "SELECT COUNT(*) FROM "+table)
		if err != nil {
			return 0, err
		}
		res, err := rows.Collect()
		if err != nil {
			return 0, err
		}
		if len(res) != 1 || len(res[0].Values) != 1 {
			return 0, fmt.Errorf("COUNT(*) FROM %s returned %d rows", table, len(res))
		}
		return int64(res[0].Values[0]), nil
	}
	if photo, err = count("photoobj"); err != nil {
		return
	}
	if tag, err = count("tag"); err != nil {
		return
	}
	spec, err = count("specobj")
	return
}

// server is the /v1 tier wired as cmd/skyserver wires it, on a loopback
// listener inside this process.
type server struct {
	www      *archive.WWW
	handler  http.Handler
	srv      *http.Server
	served   chan struct{} // closed when Serve has returned; serveErr is then set
	serveErr error
	addr     string
	url      string
}

func startServer(eng *qe.Engine, maxRows int) (*server, error) {
	www := archive.NewWWW(eng)
	www.MaxRows = maxRows
	www.Jobs = archive.NewJobManager(eng, archive.JobConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	s := &server{www: www, handler: www.Handler(), served: make(chan struct{}), addr: addr, url: "http://" + addr}
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		s.serveErr = s.srv.Serve(ln)
		close(s.served)
	}()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and for the job
// tier to go idle, so nothing of the server outlives the call.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if err == nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = s.serveErr
	}
	for {
		queued, running, _ := s.www.Jobs.Counts()
		if queued+running == 0 {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("job tier still busy at shutdown: %d queued, %d running", queued, running)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitJob polls a submitted job until it is done.
func (s *server) waitJob(id string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, ok := s.www.Jobs.Get(id)
		switch {
		case !ok:
			return fmt.Errorf("job %s vanished", id)
		case st.State == archive.JobDone:
			return nil
		case st.State == archive.JobFailed || st.State == archive.JobCanceled:
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		case time.Now().After(deadline):
			return fmt.Errorf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
