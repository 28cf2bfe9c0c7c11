package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"flos/internal/diskgraph"
	"flos/internal/gen"
)

// parse registers every flag on a fresh set and parses args into a config.
func parse(t *testing.T, args ...string) (*config, *flag.FlagSet) {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("flosd", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c, fs
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring; "" = valid
	}{
		{[]string{"-bin", "g.bin"}, ""},
		{[]string{"-graph", "g.txt", "-live"}, ""},
		{[]string{"-bin", "g.bin", "-live", "-flightrec", "0", "-trace-sample", "0"}, ""},
		{[]string{"-store", "g.flos", "-pagecache", "1", "-trace-sample", "1"}, ""},
		{nil, "exactly one of -graph, -bin, -store"},
		{[]string{"-graph", "g.txt", "-bin", "g.bin"}, "exactly one of -graph, -bin, -store"},
		{[]string{"-bin", "g.bin", "-store", "g.flos"}, "exactly one of -graph, -bin, -store"},
		{[]string{"-store", "g.flos", "-live"}, "-live requires an in-memory graph"},
		{[]string{"-store", "g.flos", "-pagecache", "0"}, "-pagecache must be positive"},
		{[]string{"-bin", "g.bin", "-pagecache", "0"}, ""}, // only a store pins rows
		{[]string{"-bin", "g.bin", "-trace-sample", "1.5"}, "-trace-sample must be in [0, 1]"},
		{[]string{"-bin", "g.bin", "-trace-sample", "-0.1"}, "-trace-sample must be in [0, 1]"},
		{[]string{"-bin", "g.bin", "-maxk", "0", "-maxbatch", "0", "-max-deadline", "0"}, ""}, // zero = default
		{[]string{"-bin", "g.bin", "-maxk", "-1"}, "-maxk must not be negative"},
		{[]string{"-bin", "g.bin", "-maxbatch", "-1"}, "-maxbatch must not be negative"},
		{[]string{"-bin", "g.bin", "-max-deadline", "-1s"}, "-max-deadline must not be negative"},
	} {
		c, _ := parse(t, tc.args...)
		err := c.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: %v, want valid", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v: err %v, want %q", tc.args, err, tc.wantErr)
		}
	}
	c, _ := parse(t, "-bin", "g.bin")
	c.traceSample = math.NaN()
	if c.Validate() == nil {
		t.Error("-trace-sample NaN accepted")
	}
}

// TestFlagsInProse checks every flag the docs name is registered: each
// `-flag` in backticks in README.md (flags of other commands are written
// with the command, as in `flos -replay`), and each -flag in this package's
// doc comment.
func TestFlagsInProse(t *testing.T) {
	_, fs := parse(t)
	check := func(where, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if fs.Lookup(m[1]) == nil {
				t.Errorf("%s names -%s, which flosd does not register", where, m[1])
			}
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", string(readme), regexp.MustCompile("`-([a-z][a-z0-9-]*)"))

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Code spans in the comment quote other commands (`flos -replay`).
	doc := regexp.MustCompile("`[^`]*`").ReplaceAllString(f.Doc.Text(), "")
	check("the package comment", doc, regexp.MustCompile(`(?:^|[\s(])-([a-z][a-z0-9-]*)`))
}

// TestCorruptStoreFailsStartup runs flosd on a store whose offsets section
// is corrupt: start-up must exit 1 naming the bad node, instead of serving
// and panicking on the first query that visits it. The test binary re-runs
// itself as flosd.
func TestCorruptStoreFailsStartup(t *testing.T) {
	if store := os.Getenv("FLOSD_TEST_STORE"); store != "" {
		os.Args = []string{"flosd", "-store", store, "-pagecache", "1", "-addr", "127.0.0.1:0"}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "corrupt.flos")
	if err := diskgraph.Create(path, gen.PaperExample(), 4096); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// FLOSDSK3 layout: a 28-byte header padded to 32, then the degrees (n
	// words) and offsets (n+1 words) sections.
	le := binary.LittleEndian
	n, m2 := le.Uint64(data[8:]), le.Uint64(data[16:])
	offsetsOff := 32 + 8*n
	le.PutUint64(data[offsetsOff+3*8:], m2+5) // node 2's row now ends past the rows section
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCorruptStoreFailsStartup$")
	cmd.Env = append(os.Environ(), "FLOSD_TEST_STORE="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("flosd on a corrupt store: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "corrupt offsets: node 2 ") || strings.Contains(string(out), "panic") {
		t.Fatalf("flosd on a corrupt store printed:\n%s", out)
	}
}
