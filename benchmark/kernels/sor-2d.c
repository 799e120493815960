// The 2-d SOR-like nest of the paper's Fig. 4 (pipelined parallelism).
params N;
assume N >= 3;
array a[N][N];
for (i = 1; i < N; i++)
  for (j = 1; j < N; j++)
    a[i][j] = a[i-1][j] + a[i][j-1];
