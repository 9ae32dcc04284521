module mlbench/benchmark

go 1.22

require mlbench v0.0.0

replace mlbench => ../
