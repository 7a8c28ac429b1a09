module diffkv/benchmark

go 1.24

require diffkv v0.0.0

replace diffkv => ../
