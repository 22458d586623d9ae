package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Profile is a pprof profile of one process run; *Profile is a flag.Value
// spelled cpu=FILE (profile the whole run) or heap=FILE (snapshot the heap
// after it). The zero value profiles nothing.
type Profile struct {
	Mode, Path string
}

// String spells the profile as Set parses it.
func (p *Profile) String() string {
	if p.Path == "" {
		return ""
	}
	return p.Mode + "=" + p.Path
}

// Set parses cpu=FILE or heap=FILE.
func (p *Profile) Set(s string) error {
	mode, path, _ := strings.Cut(s, "=")
	if path == "" || (mode != "cpu" && mode != "heap") {
		return fmt.Errorf("obs: bad profile %q (want cpu=FILE or heap=FILE)", s)
	}
	*p = Profile{mode, path}
	return nil
}

// Start begins the profile; stop, called once when the run ends, finishes
// and writes it.
func (p Profile) Start() (stop func() error, err error) {
	switch p.Mode {
	case "cpu":
		f, err := os.Create(p.Path)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}, nil
	case "heap":
		return func() error {
			f, err := os.Create(p.Path)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}, nil
	}
	return func() error { return nil }, nil
}
