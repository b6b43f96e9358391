// Package version reports the build's identity — module version plus
// VCS revision — from the data the Go toolchain embeds in every binary
// (runtime/debug.ReadBuildInfo). Both CLIs expose it via -version and
// the daemon reports it in /healthz, so a deployed binary can always be
// tied back to a commit.
package version

import (
	"runtime"
	"runtime/debug"
	"strings"
)

// String renders the build identity, e.g.
//
//	v1.2.3 (rev 0123abcd, modified) go1.22.1
//
// Fields that the build did not embed (e.g. `go run` has no VCS stamp)
// are omitted; the Go toolchain version is always present.
func String() string {
	mod := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		mod = bi.Main.Version
	}
	rev, modified := vcs()
	var b strings.Builder
	b.WriteString(mod)
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		b.WriteString(" (rev ")
		b.WriteString(rev)
		if modified {
			b.WriteString(", modified")
		}
		b.WriteString(")")
	}
	b.WriteString(" ")
	b.WriteString(runtime.Version())
	return b.String()
}

// Revision returns the full VCS revision the build embedded, suffixed
// "+modified" when the working tree had local changes, or "unknown"
// when the build carries no VCS stamp.
func Revision() string {
	rev, modified := vcs()
	switch {
	case rev == "":
		return "unknown"
	case modified:
		return rev + "+modified"
	}
	return rev
}

// vcs reads the embedded VCS revision and dirty flag.
func vcs() (rev string, modified bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return rev, modified
}
