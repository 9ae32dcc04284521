package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// ImplLoc reports the lines of Go code of each per-platform task
// implementation — the analogue of the paper's "lines of code" column.
// The numbers are not comparable 1:1 with the paper's (our per-platform
// files program against simulated engines and charge costs explicitly),
// but the relative ordering carries the same signal: the graph-engine
// codes are the longest, the dataflow and SQL codes the shortest.
type ImplLoc struct {
	Task     string
	Platform string
	Lines    int
}

// implFiles maps (task, platform) to the implementation files, relative
// to the repository's internal/tasks directory.
var implFiles = []struct {
	task, platform, file string
}{
	{"GMM", "Spark", "gmmtask/spark.go"},
	{"GMM", "SimSQL", "gmmtask/simsql.go"},
	{"GMM", "GraphLab", "gmmtask/graphlab.go"},
	{"GMM", "Giraph", "gmmtask/giraph.go"},
	{"GMM", "Param Server", "gmmtask/psengine.go"},
	{"Lasso", "Spark", "lassotask/spark.go"},
	{"Lasso", "SimSQL", "lassotask/simsql.go"},
	{"Lasso", "GraphLab", "lassotask/graphlab.go"},
	{"Lasso", "Giraph", "lassotask/giraph.go"},
	{"Lasso", "Param Server", "lassotask/psengine.go"},
	{"HMM", "Spark", "hmmtask/spark.go"},
	{"HMM", "SimSQL", "hmmtask/simsql.go"},
	{"HMM", "GraphLab", "hmmtask/graphlab.go"},
	{"HMM", "Giraph", "hmmtask/giraph.go"},
	{"HMM", "Param Server", "hmmtask/psengine.go"},
	{"LDA", "Spark", "ldatask/spark.go"},
	{"LDA", "SimSQL", "ldatask/simsql.go"},
	{"LDA", "GraphLab", "ldatask/graphlab.go"},
	{"LDA", "Giraph", "ldatask/giraph.go"},
	{"LDA", "Param Server", "ldatask/psengine.go"},
	{"Imputation", "Spark", "imputetask/spark.go"},
	{"Imputation", "SimSQL", "imputetask/simsql.go"},
	{"Imputation", "Graph engines", "imputetask/graphs.go"},
	// The synthetic-dataset generator is engine-independent support code,
	// reported for the same "how much code did this take" signal.
	{"Datagen", "Spec + scenarios", "../datagen/spec.go"},
	{"Datagen", "Sharded generator", "../datagen/generate.go"},
	{"Datagen", "Workload generators", "../workload/workload.go"},
}

// LinesOfCode counts the non-blank, non-comment lines of every task
// implementation. It locates the sources relative to this file via
// runtime.Caller; when the sources are unavailable (stripped binary) it
// returns nil.
func LinesOfCode() []ImplLoc {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return nil
	}
	tasksDir := filepath.Join(filepath.Dir(filepath.Dir(self)), "tasks")
	var out []ImplLoc
	for _, f := range implFiles {
		n, err := countLines(filepath.Join(tasksDir, f.file))
		if err != nil {
			continue
		}
		out = append(out, ImplLoc{Task: f.task, Platform: f.platform, Lines: n})
	}
	return out
}

// countLines counts non-blank, non-comment-only lines.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}
