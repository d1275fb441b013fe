module github.com/trajcover/trajcover/benchmark

go 1.22

require github.com/trajcover/trajcover v0.0.0

replace github.com/trajcover/trajcover => ../
