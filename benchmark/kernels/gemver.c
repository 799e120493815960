// BLAS gemver: rank-2 update, transposed product, vector add, product.
params N;
assume N >= 3;
array A[N][N]; array u1[N]; array v1[N]; array u2[N]; array v2[N];
array x[N]; array y[N]; array z[N]; array w[N];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    x[i] = x[i] + 0.9 * A[j][i] * y[j];
for (i = 0; i < N; i++)
  x[i] = x[i] + z[i];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    w[i] = w[i] + 1.1 * A[i][j] * x[j];
