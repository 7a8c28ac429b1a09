module diffkv

go 1.24
