module dmvcc/benchmark

go 1.22

require dmvcc v0.0.0

replace dmvcc => ../
