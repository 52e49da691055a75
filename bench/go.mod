module github.com/ares-storage/ares/bench

go 1.22

require github.com/ares-storage/ares v0.0.0

replace github.com/ares-storage/ares => ../
