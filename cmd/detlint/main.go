// Command detlint runs the determinism analyzers (internal/lint) under the
// go command, one compilation unit at a time:
//
//	go install ./cmd/detlint && go vet -vettool=$(which detlint) ./...
//
// go vet hands it a *.cfg file per unit, naming the unit's sources and the
// export data the go command compiled for each import. detlint reads that
// export data, so, like every vettool, it must be built by the same go
// command that runs vet.
//
// Exit status: 0 clean, 1 usage or typecheck failure, 2 findings.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

const usage = "usage: go vet -vettool=$(which detlint) [packages]"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run answers go vet's two probes of the tool (-V=full, -flags) and vets
// one unit's *.cfg; any other argument list is a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch a := args[0]; {
		case a == "-V=full" || a == "--V=full":
			fmt.Fprintln(stdout, "detlint version v1.0.0")
			return 0
		case a == "-flags" || a == "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(a, ".cfg"):
			code, err := lint.VetUnit(stderr, a)
			if err != nil {
				fmt.Fprintln(stderr, "detlint:", err)
				return 1
			}
			return code
		}
	}
	fmt.Fprintln(stderr, usage)
	return 1
}
