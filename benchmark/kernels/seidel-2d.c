// Gauss-Seidel successive over-relaxation, time + 2-d space (paper Sec. 7).
params T, N;
assume N >= 4;
array a[N][N];
for (t = 0; t < T; t++)
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      a[i][j] = 0.2 * (a[i-1][j] + a[i][j-1] + a[i][j] + a[i][j+1] + a[i+1][j]);
