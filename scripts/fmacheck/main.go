// Command fmacheck enforces the repository's rounding contract for cost
// arithmetic: no fused multiply-add in the packages it covers.
//
// The Go spec lets a compiler fuse x*y + z into one instruction with one
// rounding, and the arm64, ppc64le and riscv64 back ends do; amd64 does not.
// A fused sum rounds differently from the unfused one, so a cost, a fold or
// a fingerprint computed on such a machine could differ in its last bits
// from the amd64 result every golden was taken on. The rule is to round the
// product explicitly, as in float64(x*y) + z, which the spec forbids the
// compiler to fuse.
//
// fmacheck cross-compiles the server (cmd/dtaserver) and the core package's
// test binary for each of those architectures, disassembles them with
// go tool objdump, and fails when any function of a covered package holds a
// fused multiply-add or multiply-subtract instruction, listing each with its
// source line. It is offline: the toolchain cross-compiles the standard
// library from its own sources.
//
// Usage:
//
//	go run ./scripts/fmacheck
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// fused matches the mnemonic of a fused multiply-add or multiply-subtract
// as go tool objdump prints it on the covered architectures: FMADDD,
// FMSUBD, FNMADDD and FNMSUBD (arm64, riscv64), FMADD, FMSUB, FNMADD and
// FNMSUB (ppc64le), and their single-precision forms.
var fused = regexp.MustCompile(`^FN?M(ADD|SUB)[DS]?$`)

// arches are the architectures whose back ends fuse multiply-adds.
var arches = []string{"arm64", "ppc64le", "riscv64"}

// covered is the symbol pattern of the packages checked.
const covered = `^(repro/internal/core|repro/internal/derive)\.`

// targets are the binaries checked: the server and the core test binary.
var targets = []struct {
	name string
	args []string // go build/test arguments before -o
	pkg  string
}{
	{"dtaserver", []string{"build"}, "./cmd/dtaserver"},
	{"core.test", []string{"test", "-c"}, "./internal/core"},
}

func main() {
	tmp, err := os.MkdirTemp("", "fmacheck")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	bad := 0
	for _, arch := range arches {
		for _, t := range targets {
			bin := filepath.Join(tmp, t.name+"."+arch)
			args := append(append([]string(nil), t.args...), "-o", bin, t.pkg)
			if out, err := run(arch, "go", args...); err != nil {
				fatal(fmt.Errorf("go %s (GOARCH=%s): %v\n%s", strings.Join(args, " "), arch, err, out))
			}
			out, err := run("", "go", "tool", "objdump", "-s", covered, bin)
			if err != nil {
				fatal(fmt.Errorf("objdump %s: %v\n%s", bin, err, out))
			}
			n := scan(out, arch, t.name)
			bad += n
			fmt.Printf("fmacheck: %s %s: %d fused instructions in internal/core and internal/derive\n", arch, t.name, n)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "fmacheck: %d fused multiply-add instructions; round each product explicitly, as in float64(x*y) + z\n", bad)
		os.Exit(1)
	}
}

// scan reports every fused instruction in an objdump listing, with the
// function it is in, and returns their count.
func scan(listing []byte, arch, bin string) int {
	n := 0
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "TEXT ") {
			fn = strings.Fields(line)[1]
			continue
		}
		// An instruction line: source position, address, encoding, then
		// the mnemonic and its operands.
		f := strings.Fields(line)
		if len(f) < 4 || !fused.MatchString(f[3]) {
			continue
		}
		n++
		fmt.Fprintf(os.Stderr, "%s %s: %s: %s %s\n", arch, bin, f[0], fn, strings.Join(f[3:], " "))
	}
	return n
}

// run runs a command with GOARCH set to arch (unchanged when empty) and
// returns its combined output.
func run(arch, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = os.Environ()
	if arch != "" {
		cmd.Env = append(cmd.Env, "GOARCH="+arch, "CGO_ENABLED=0")
	}
	return cmd.CombinedOutput()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmacheck:", err)
	os.Exit(2)
}
