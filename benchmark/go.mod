module rankjoin/benchmark

go 1.24

require rankjoin v0.0.0

replace rankjoin => ../
