// Tests for the ASCII chart renderer used by the bench binaries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/ascii_chart.h"

namespace femtocr::util {
namespace {

TEST(AsciiChart, RendersTitleMarkersAndLegend) {
  AsciiChart chart("test chart", {0.0, 1.0, 2.0});
  chart.add_series("up", {1.0, 2.0, 3.0});
  chart.add_series("down", {3.0, 2.0, 1.0});
  std::ostringstream oss;
  chart.print(oss, 8, 24);
  const std::string out = oss.str();
  EXPECT_NE(out.find("test chart"), std::string::npos);
  EXPECT_NE(out.find("* = up"), std::string::npos);
  EXPECT_NE(out.find("o = down"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(AsciiChart, LineCountMatchesHeight) {
  AsciiChart chart("c", {0.0, 1.0});
  chart.add_series("s", {1.0, 2.0});
  std::ostringstream oss;
  chart.print(oss, 10, 20);
  std::size_t lines = 0;
  for (char c : oss.str()) {
    if (c == '\n') ++lines;
  }
  // title + 10 canvas rows + axis + x labels + legend = 14.
  EXPECT_EQ(lines, 14u);
}

TEST(AsciiChart, ExtremesLandOnTopAndBottomRows) {
  AsciiChart chart("c", {0.0, 1.0});
  chart.add_series("s", {0.0, 10.0});
  std::ostringstream oss;
  chart.print(oss, 6, 20);
  std::istringstream in(oss.str());
  std::string line;
  std::getline(in, line);  // title
  std::getline(in, line);  // top row: should contain the max marker
  EXPECT_NE(line.find('*'), std::string::npos);
}

TEST(AsciiChart, FlatSeriesDoesNotDivideByZero) {
  AsciiChart chart("flat", {0.0, 1.0, 2.0});
  chart.add_series("s", {5.0, 5.0, 5.0});
  std::ostringstream oss;
  EXPECT_NO_THROW(chart.print(oss));
  EXPECT_NE(oss.str().find('*'), std::string::npos);
}

TEST(AsciiChart, Validation) {
  EXPECT_THROW(AsciiChart("c", {1.0}), std::logic_error);
  AsciiChart chart("c", {0.0, 1.0});
  EXPECT_THROW(chart.add_series("bad", {1.0}), std::logic_error);
  std::ostringstream oss;
  EXPECT_THROW(chart.print(oss), std::logic_error);  // no series yet
  chart.add_series("s", {1.0, 2.0});
  EXPECT_THROW(chart.print(oss, 2, 20), std::logic_error);  // too small
}

TEST(AsciiChart, ManySeriesCycleMarkers) {
  AsciiChart chart("c", {0.0, 1.0});
  for (int i = 0; i < 7; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    chart.add_series(name, {1.0 * i, 1.0 * i + 1});
  }
  std::ostringstream oss;
  chart.print(oss);
  // 7th series wraps back to the first marker.
  EXPECT_NE(oss.str().find("* = s6"), std::string::npos);
}

}  // namespace
}  // namespace femtocr::util
